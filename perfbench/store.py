"""The ``store`` workload: the out-of-core triple store, written then read.

Set-up generates a seeded synthetic feed of association triples in RAM.
One operation builds a sharded store from it
(``build_store_from_columns``) and analyzes the result
(``analyze_store``), so the store layer both writes and reads the same
data.  Every operation must produce the same store digest and the same
artifacts as one in-RAM NumPy pass over the feed.
"""

from __future__ import annotations

import contextlib
import shutil
import time
from typing import Dict, List

from perfbench.common import (
    Checks,
    HostSpeed,
    Report,
    Trace,
    bucket_quantile,
    io_write_bytes,
    latency_summary,
    median,
    median_by_key,
    merged_buckets,
    peak_rss_mib,
    repeat_median,
    run_for,
    traced,
)

TUPLES = 8_000_000
SHARDS = 16
BATCH_ROWS = 1 << 20
#: Key pools at ``bench_baseline --check`` density: one /24 per 500 rows,
#: one /64 per 50 rows.
V4_POOL = TUPLES // 500
V6_POOL = TUPLES // 50
#: Feed generations timed for set-up.
GEN_REPEATS = 3
MIB = 1 << 20


def _feed(seed: int) -> list:
    from repro.store import synthetic_triple_batches

    return list(
        synthetic_triple_batches(
            TUPLES, batch_rows=BATCH_ROWS, seed=seed, v4_pool=V4_POOL, v6_pool=V6_POOL
        )
    )


def _reference(batches: list) -> dict:
    """All store artifacts from one in-RAM NumPy pass over the feed."""
    import numpy as np

    from repro.core.associations_np import (
        association_durations_np,
        box_stats_np,
        degree_count_arrays,
    )
    from repro.core.delegation import trailing_zero_profile_np
    from repro.store import normalize_columns

    days, v4, v6 = normalize_columns(
        *(np.concatenate([batch[column] for batch in batches]) for column in range(3))
    )
    durations = association_durations_np(days.astype(np.int64), v4, v6)
    values, counts = np.unique(durations, return_counts=True)
    v6_keys, v6_unique, _ = degree_count_arrays(v6, v4)
    return {
        "duration_counts": dict(zip(values.tolist(), counts.tolist())),
        "box": box_stats_np(durations, empty_ok=True),
        "v4": degree_count_arrays(v4, v6),
        "v6_keys": v6_keys,
        "v6_unique": v6_unique,
        "delegation": trailing_zero_profile_np(v6_keys),
    }


def _mismatches(analysis, reference: dict) -> List[str]:
    import numpy as np

    def same(got, want):
        return all(np.array_equal(a, b) for a, b in zip(got, want))

    checks = {
        "duration_counts": analysis.duration_counts == reference["duration_counts"],
        "box": analysis.box == reference["box"],
        "v4 degrees": same(
            (analysis.v4_keys, analysis.v4_unique, analysis.v4_hits), reference["v4"]
        ),
        "v6 degrees": same(
            (analysis.v6_keys, analysis.v6_unique),
            (reference["v6_keys"], reference["v6_unique"]),
        ),
        "delegation": analysis.delegation == reference["delegation"],
    }
    return [f"store {name} differs from the in-RAM pass" for name, ok in checks.items() if not ok]


class _Op:
    """One build + analyze in fresh directories under ``scratch``."""

    def __init__(self, batches: list, scratch) -> None:
        self.batches = batches
        self.scratch = scratch
        self.count = 0

    def __call__(self, trace: bool = False) -> dict:
        from repro.perf.timing import RssSampler, current_rss_bytes
        from repro.store import analyze_store, build_store_from_columns

        def phase(fn) -> Trace:
            return traced(fn) if trace else Trace(0.0, fn(), [], {})

        self.count += 1
        directory = self.scratch / f"store-{self.count}"
        work = self.scratch / f"analyze-{self.count}"
        try:
            written = io_write_bytes()
            start = time.perf_counter()
            build = phase(
                lambda: build_store_from_columns(
                    iter(self.batches), directory, shards=SHARDS
                )
            )
            build_s = time.perf_counter() - start
            written = io_write_bytes() - written
            store = build.result
            rss_start = current_rss_bytes() or 0
            sampler = RssSampler()
            start = time.perf_counter()
            with sampler if trace else contextlib.nullcontext():
                analyze = phase(lambda: analyze_store(store, scratch_dir=work))
            analyze_s = time.perf_counter() - start
            return {
                "build_s": build_s,
                "analyze_s": analyze_s,
                "digest": store.digest(),
                "nbytes": store.nbytes,
                "written": written,
                "analysis": analyze.result,
                "build": build,
                "analyze": analyze,
                "rss_delta": (sampler.peak_bytes or rss_start) - rss_start,
            }
        finally:
            shutil.rmtree(directory, ignore_errors=True)
            shutil.rmtree(work, ignore_errors=True)


def _layers(result: dict) -> Dict[str, float]:
    """Per-layer figures of one traced build + analyze."""
    build, analyze = result["build"], result["analyze"]

    def total(trace, name):
        return trace.spans().get(name, {}).get("total", 0.0)

    shards = merged_buckets(analyze.metrics, "store.shard.seconds")
    return {
        "store.write_s": total(build, "store/build") - total(build, "store/finalize"),
        "store.finalize_s": total(build, "store/finalize"),
        "store.spills": build.counter("store.spill_events"),
        "store.analyze_s": total(analyze, "store/analyze"),
        "store.shard_p50_ms": bucket_quantile(shards, 0.5) * 1e3,
        "store.merge_blocks": analyze.counter("store.merge_blocks"),
        "store.bytes_mapped_per_tuple": analyze.counter("store.bytes_mapped") / TUPLES,
        "store.analyze_rss_delta_mib": result["rss_delta"] / MIB,
    }


def run_store(seed: int, seconds: int, trace: bool, scratch, host: HostSpeed) -> Report:
    """Build and analyze the store from the same in-RAM feed, repeatedly."""
    setup_s, batches = repeat_median(GEN_REPEATS, lambda: _feed(seed))
    op = _Op(batches, scratch)

    samples = [result for _, result in run_for(seconds, op, host=host)]
    peak = peak_rss_mib()
    # The in-RAM pass needs the memory the store exists to avoid, so it
    # runs after the peak above was read.
    reference = _reference(batches)
    checks = Checks()
    digest = samples[0]["digest"]

    def check(result):
        problems = _mismatches(result["analysis"], reference)
        if result["digest"] != digest:
            problems.append("store digest differs between operations")
        checks.record(problems)

    for result in samples:
        check(result)
    op_s = [result["build_s"] + result["analyze_s"] for result in samples]
    in_cal = host.per_op(op_s)
    items_per_s = TUPLES * len(op_s) / sum(op_s)
    end_to_end = {
        "setup_s": setup_s,
        "op_p50_cal": median(in_cal),
        "items_per_cal": TUPLES * len(in_cal) / sum(in_cal),
        "peak_rss_mib": peak,
    }
    figures = {
        "store.io_write_bytes_per_tuple": median(r["written"] for r in samples) / TUPLES,
        "store.build_mtuples_per_s": median(TUPLES / r["build_s"] for r in samples) / 1e6,
        "store.analyze_mtuples_per_s": median(TUPLES / r["analyze_s"] for r in samples) / 1e6,
        "store.bytes_per_tuple": samples[0]["nbytes"] / TUPLES,
    }
    details = {
        "op": latency_summary(op_s),
        "items_per_s": items_per_s,
        "tuples": TUPLES,
        **figures,
        **host.summary(),
    }
    samples = None
    layers: Dict[str, float] = {}
    if trace:

        def consume(result):
            check(result)
            return result["build_s"] + result["analyze_s"], _layers(result)

        rows = [row for _, row in run_for(seconds, lambda: op(trace=True), consume)]
        layers = {"store.input_gen_s": setup_s, **figures}
        layers.update(median_by_key([row for _, row in rows]))
        layers["obs.trace_overhead_ratio"] = median(s for s, _ in rows) / median(op_s)
        details["traced_ops"] = len(rows)
    scale = {
        "tuples": TUPLES,
        "shards": SHARDS,
        "batch_rows": BATCH_ROWS,
        "v4_pool": V4_POOL,
        "v6_pool": V6_POOL,
    }
    return Report(checks, end_to_end, layers, details, scale)
