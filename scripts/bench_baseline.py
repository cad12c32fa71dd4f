"""Scenario-build and analysis baseline: time, verify, record.

Runs the stage table :data:`STAGES` in order (scenario builds, the cache
round-trip, py-vs-fused analysis, streaming replay, the out-of-core
store, the end-to-end report, the query service and the observability
plane).  Each stage checks its results bit-identical to a reference and
returns its payload section plus its failures; its docstring says what
it times and gates.  Every duration comes from a ``repro.obs`` span
under one ``bench_baseline`` root.  The payload is written to the
repo-root ``BENCH_baseline.json`` and appended to
``BENCH_history.jsonl``, which ``scripts.bench_report`` gates.

Usage::

    PYTHONPATH=src python -m scripts.bench_baseline           # full baseline
    PYTHONPATH=src python -m scripts.bench_baseline --check   # CI smoke mode

``--check`` shrinks the scales to finish in seconds and only records the
hardware-dependent bounds (the ``MIN_*``/``MAX_*`` constants below); it
still enforces determinism, engine parity, the cache round-trip and the
store RSS gate.  ``REPRO_PROFILE=1`` drops one cProfile per stage
(``profile_bench_<stage>.*`` under ``benchmarks/results/``), and
``REPRO_TELEMETRY=1`` exports the span tree as
``trace_bench_baseline.jsonl``.
"""

from __future__ import annotations

import argparse
import os
import pickle
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

_REPO_ROOT = Path(__file__).resolve().parents[1]
if "repro" not in sys.modules:
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.core.report import resolve_engine  # noqa: E402
from repro.obs import TELEMETRY_ENV, export_trace, get_tracer, telemetry  # noqa: E402
from repro.perf.cache import CACHE_DIR_ENV  # noqa: E402
from repro.perf.profiling import maybe_profile  # noqa: E402
from repro.perf.timing import (  # noqa: E402
    RssSampler,
    append_history,
    current_rss_bytes,
    write_baseline,
)
from repro.perf.verify import (  # noqa: E402
    assert_atlas_scenarios_equal,
    assert_cdn_scenarios_equal,
    serve_diffs,
    telemetry_invariance_diffs,
)
from repro.serve import (  # noqa: E402
    ArtifactRegistry,
    QueryEngine,
    StabilityQuery,
    observed_prefixes,
)
from repro.workloads import (  # noqa: E402
    analyze_atlas_scenario,
    build_atlas_scenario,
    build_cdn_scenario,
    periodicity_for_scenario,
    stream_analyze_atlas_scenario,
)

#: Downscaled-but-representative scales (seconds-scale serial builds).
FULL_SCALE = {
    "atlas": {"probes_per_as": 20, "years": 2.0},
    "cdn": {
        "days": 60,
        "fixed_subscribers_per_registry": 300,
        "mobile_devices_per_registry": 200,
        "featured_subscribers": 100,
    },
    # >=100M synthetic tuples: far beyond what the in-RAM path could
    # hold as Python triples, the point of the out-of-core store.
    "store": {"tuples": 100_000_000, "shards": 64,
              "batch_rows": 1 << 20, "block_rows": 1 << 18,
              "segment_rows": 1 << 22,
              "v4_pool": 200_000, "v6_pool": 2_000_000},
}
#: CI smoke scales (sub-second serial builds).
CHECK_SCALE = {
    "atlas": {"probes_per_as": 4, "years": 0.3},
    "cdn": {
        "days": 12,
        "fixed_subscribers_per_registry": 24,
        "mobile_devices_per_registry": 30,
        "featured_subscribers": 24,
    },
    # ~1M tuples: the same machinery at a scale CI finishes in seconds.
    # Key pools shrink with the row count so the rows-per-/64 density
    # (and hence the degree-merge working set relative to the RSS gate)
    # matches the full-scale regime instead of being nearly all-unique.
    "store": {"tuples": 1_000_000, "shards": 16,
              "batch_rows": 1 << 16, "block_rows": 1 << 13,
              "segment_rows": 1 << 18,
              "v4_pool": 2_000, "v6_pool": 20_000},
}

#: Full-mode bounds; ``--check`` records them beside the measured values.
#: Serial/parallel scenario-build speedup (multi-core hosts only).
MIN_BUILD_SPEEDUP = 2.0
#: py/fused speedup per analysis stage.
MIN_ANALYSIS_SPEEDUPS = {"table1": 3.0, "table2": 5.0, "periodicity": 20.0}
#: Out-of-core analyze throughput.
MIN_STORE_TUPLES_PER_SECOND = 100_000.0
#: Parallel-vs-serial store build tuples/s speedup (multi-core hosts only).
MIN_STORE_BUILD_SPEEDUP = 2.0
#: Batched-vs-sequential speedup on the 64 coalesced serve queries.
MIN_SERVE_SPEEDUP = 2.0
#: Disabled-telemetry analysis rerun over the analysis stage's fused sum.
MAX_OBS_OVERHEAD = 1.05
#: Peak-RSS gate for the out-of-core analyzer, as a fraction of the
#: estimated materialized-triples footprint; enforced in every mode.
STORE_RSS_GATE = 0.25

#: Analysis stages timed per engine, in execution order.  The first
#: stage pays for the one-time per-AS column packing on the fused
#: engine; the rest reuse the scenario-memoized packs.
ANALYSIS_STAGES = ("table1", "figure1", "figure5", "table2", "periodicity")

#: Telemetry off/on pairs the obs stage times (the order alternates).
TELEMETRY_PAIRS = 3


@dataclass
class BenchContext:
    """What every stage reads: options, scale and the shared results."""

    args: argparse.Namespace
    scale: dict
    #: Full mode: hardware-dependent bounds gate instead of only recording.
    enforce: bool
    #: Kind -> serial scenario from the build stage; later stages reuse "atlas".
    scenarios: dict = field(default_factory=dict)
    #: Engine -> ``(results, timings)`` from the analysis stage.
    analysis: dict = field(default_factory=dict)


def _span(name: str):
    """A child of the innermost open span; records with telemetry off too."""
    return get_tracer().span(name)


def _gate_pool_speedup(ctx: BenchContext) -> bool:
    """Gate a pool speedup? Full mode where a pool can win (>=2 cores, workers)."""
    return ctx.enforce and (os.cpu_count() or 1) >= 2 and ctx.args.workers >= 2


def _rss_delta(sampler: RssSampler, start: Optional[int]) -> Optional[int]:
    """Peak RSS over a sampled region minus the RSS before it (None if unknown)."""
    if sampler.peak_bytes is None or start is None:
        return None
    return sampler.peak_bytes - start


def _mib(value: Optional[int]) -> str:
    return f"{value / 2**20:.0f} MiB" if value is not None else "n/a"


def _run_analysis(scenario, engine: str):
    """Time the Section 3/5 analysis stages under one engine.

    Returns ``(results, timings)`` where both are keyed by stage; the
    results are plain comparable values so py-vs-fused parity is a ``==``.
    """
    from repro.core.report import (
        figure1_for_as,
        figure5_for_as,
        table1_row,
        table2_row,
    )

    items = list(scenario.isps.items())
    probes = {name: scenario.probes_in(isp.asn) for name, isp in items}
    columns = {name: scenario.analysis_columns(isp.asn) for name, isp in items}
    stages = {
        "table1": lambda: [
            table1_row(
                name, isp.asn, isp.config.country, probes[name],
                engine=engine, columns=columns[name],
            )
            for name, isp in items
        ],
        "figure1": lambda: {
            name: figure1_for_as(name, probes[name], engine=engine, columns=columns[name])
            for name, _ in items
        },
        "figure5": lambda: {
            name: figure5_for_as(probes[name], engine=engine, columns=columns[name])
            for name, _ in items
        },
        "table2": lambda: {
            name: table2_row(
                probes[name], scenario.table, engine=engine, columns=columns[name]
            )
            for name, _ in items
        },
        "periodicity": lambda: periodicity_for_scenario(
            scenario, min_probes=2, engine=engine
        ),
    }
    results = {}
    timings = {}
    for key in ANALYSIS_STAGES:
        with _span(f"{engine}/{key}") as timed:
            results[key] = stages[key]()
        timings[key] = timed.duration
    return results, timings


def _materialized_triple_bytes(tuples: int) -> int:
    """Estimated RAM to hold ``tuples`` rows as a list of Python triples.

    Measures a representative ``(day, v4_key, v6_key)`` tuple with
    ``sys.getsizeof`` (the /64 key is a 128-bit int, the dominant term)
    plus one 8-byte list slot per row — the footprint the in-RAM path
    pays before any kernel runs, and the yardstick the store's RSS gate
    is expressed against.
    """
    sample = (119, 200_000 << 8, (0x20010DB8 << 96) | (1 << 64))
    per_triple = sys.getsizeof(sample) + sum(sys.getsizeof(value) for value in sample)
    return tuples * (per_triple + 8)


def _store_parity(store, analysis) -> bool:
    """Does the out-of-core analysis match a single in-RAM NumPy pass?

    Concatenates every shard into one columnar array and recomputes all
    artifacts with the stock kernels — the reference the sharded
    sort/merge path must reproduce bit-identically.  Deliberately run
    *outside* the RSS-gated region: this is the memory the store path
    exists to avoid.
    """
    import numpy as np

    from repro.core.associations_np import (
        association_durations_np,
        box_stats_np,
        degree_count_arrays,
    )
    from repro.core.delegation import trailing_zero_profile_np

    days = np.concatenate(
        [np.asarray(shard.days) for shard in store.iter_shards()]
    ).astype(np.int64)
    v4_keys = np.concatenate([np.asarray(shard.v4) for shard in store.iter_shards()])
    v6_keys = np.concatenate([np.asarray(shard.v6) for shard in store.iter_shards()])
    durations = association_durations_np(days, v4_keys, v6_keys)
    values, counts = np.unique(durations, return_counts=True)
    v4_ref = degree_count_arrays(v4_keys, v6_keys)
    v6_ref_keys, v6_ref_unique, _hits = degree_count_arrays(v6_keys, v4_keys)
    return (
        analysis.duration_counts
        == {int(d): int(c) for d, c in zip(values, counts)}
        and analysis.box == box_stats_np(durations, empty_ok=True)
        and all(np.array_equal(got, ref) for got, ref in zip(
            (analysis.v4_keys, analysis.v4_unique, analysis.v4_hits), v4_ref
        ))
        and np.array_equal(analysis.v6_keys, v6_ref_keys)
        and np.array_equal(analysis.v6_unique, v6_ref_unique)
        and analysis.delegation == trailing_zero_profile_np(v6_ref_keys)
    )


def stage_build(ctx: BenchContext):
    """Atlas and CDN scenario builds, serial vs pooled.

    The results must be identical, and where a pool can win the pooled
    builds must be :data:`MIN_BUILD_SPEEDUP` faster.
    """
    args = ctx.args
    seconds = {}
    for kind, builder, assert_equal in (
        ("atlas", build_atlas_scenario, assert_atlas_scenarios_equal),
        ("cdn", build_cdn_scenario, assert_cdn_scenarios_equal),
    ):
        built = {}
        for mode, workers in (("serial", 1), ("parallel", args.workers)):
            with _span(f"{kind}_{mode}") as timed:
                built[mode] = builder(
                    seed=args.seed, workers=workers, cache=False, **ctx.scale[kind]
                )
            seconds[kind, mode] = timed.duration
        assert_equal(built["serial"], built["parallel"])
        ctx.scenarios[kind] = built["serial"]
        print(f"{kind + ':':6s} serial {seconds[kind, 'serial']:.2f}s, "
              f"{args.workers} workers {seconds[kind, 'parallel']:.2f}s "
              "— results identical")

    speedup = sum(seconds[kind, "serial"] for kind in ("atlas", "cdn")) / max(
        sum(seconds[kind, "parallel"] for kind in ("atlas", "cdn")), 1e-9
    )
    enforced = _gate_pool_speedup(ctx)
    print(f"build speedup with {args.workers} workers on {os.cpu_count() or 1} "
          f"core(s): {speedup:.2f}x" + ("" if enforced else " (not enforced)"))
    failures = []
    if enforced and speedup < MIN_BUILD_SPEEDUP:
        failures.append(f"parallel speedup {speedup:.2f}x below required "
                        f"{MIN_BUILD_SPEEDUP:.2f}x")
    build = {
        kind: {
            "serial_seconds": round(seconds[kind, "serial"], 4),
            "parallel_seconds": round(seconds[kind, "parallel"], 4),
            **ctx.scale[kind],
        }
        for kind in ("atlas", "cdn")
    }
    return {
        "build": build,
        "speedup": round(speedup, 4),
        "speedup_enforced": enforced,
        "min_speedup": MIN_BUILD_SPEEDUP,
    }, failures


def stage_cache(ctx: BenchContext):
    """Scenario-cache round-trip in a throwaway directory.

    The second build must be a faster pure load equal to the first.
    """
    seconds = {}
    built = {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        os.environ[CACHE_DIR_ENV] = tmp
        for key in ("cold", "warm"):
            with _span(key) as timed:
                built[key] = build_atlas_scenario(
                    seed=ctx.args.seed, workers=1, cache=True, **ctx.scale["atlas"]
                )
            seconds[key] = timed.duration
        os.environ.pop(CACHE_DIR_ENV, None)
    assert_atlas_scenarios_equal(built["cold"], built["warm"])
    failures = []
    if not seconds["warm"] < seconds["cold"]:
        failures.append(f"cache hit ({seconds['warm']:.2f}s) not faster than "
                        f"cold build ({seconds['cold']:.2f}s)")
    print(f"cache: cold {seconds['cold']:.2f}s, warm hit {seconds['warm']:.3f}s "
          f"({seconds['cold'] / max(seconds['warm'], 1e-9):.0f}x)")
    return {"cache": {
        "cold_seconds": round(seconds["cold"], 4),
        "warm_seconds": round(seconds["warm"], 4),
    }}, failures


def stage_analysis(ctx: BenchContext):
    """The analysis stages under the ``py`` reference and ``fused``.

    The artifacts must be identical, and full mode gates
    :data:`MIN_ANALYSIS_SPEEDUPS`.
    """
    for engine in ("py", "fused"):
        ctx.analysis[engine] = _run_analysis(ctx.scenarios["atlas"], engine)
    (py_results, py_timings), (fused_results, fused_timings) = (
        ctx.analysis["py"], ctx.analysis["fused"]
    )
    failures = []
    parity = fused_results == py_results
    if not parity:
        failures.append("analysis engine parity violated: fused != py artifacts")
    stages = {}
    for key in ANALYSIS_STAGES:
        speedup = py_timings[key] / max(fused_timings[key], 1e-9)
        stages[key] = {
            "py_seconds": round(py_timings[key], 4),
            "fused_seconds": round(fused_timings[key], 4),
            "speedup": round(speedup, 4),
        }
        print(f"analysis {key:8s} py {py_timings[key]:.3f}s "
              f"fused {fused_timings[key]:.3f}s ({speedup:.1f}x) — "
              "artifacts identical")
        required = MIN_ANALYSIS_SPEEDUPS.get(key)
        if ctx.enforce and required is not None and speedup < required:
            failures.append(f"{key} analysis speedup {speedup:.2f}x below "
                            f"required {required:.2f}x")
    return {"analysis": {
        "default_engine": resolve_engine(None),
        "stages": stages,
        "parity": parity,
        "min_speedups": MIN_ANALYSIS_SPEEDUPS,
        **{f"{key}_speedup_enforced": ctx.enforce for key in MIN_ANALYSIS_SPEEDUPS},
    }}, failures


def stage_streaming(ctx: BenchContext):
    """Chunked streaming replay of the Atlas scenario.

    It must reproduce the batch fused artifacts, and in full mode its
    checkpointable state must stay bounded by the population rather than
    grow with the stream (pickled state after all chunks vs after the
    first quarter).
    """
    atlas = ctx.scenarios["atlas"]
    chunk_hours = 24 * 30
    total_chunks = max(1, -(-atlas.end_hour // chunk_hours))
    quarter_chunks = max(1, total_chunks // 4)
    state_bytes = {}

    def _sample_state(engine_obj, chunk):
        if chunk.index + 1 in (quarter_chunks, total_chunks):
            state_bytes[chunk.index + 1] = len(
                pickle.dumps(engine_obj.state_dict(), protocol=pickle.HIGHEST_PROTOCOL)
            )

    with RssSampler() as sampler, _span("replay") as timed:
        result = stream_analyze_atlas_scenario(
            atlas, chunk_hours=chunk_hours, min_probes=2, on_chunk=_sample_state
        )
    failures = []
    parity = (
        result.analysis == analyze_atlas_scenario(atlas, engine="fused")
        and (result.v4_periods, result.v6_periods)
        == periodicity_for_scenario(atlas, min_probes=2, engine="fused")
    )
    if not parity:
        failures.append("streaming replay parity violated: streamed != batch fused")
    runs_per_s = result.stats.runs_seen / max(timed.duration, 1e-9)
    bytes_quarter = state_bytes.get(quarter_chunks)
    bytes_end = state_bytes.get(total_chunks)
    state_bounded = None
    if bytes_quarter and bytes_end:
        state_bounded = bytes_end <= 3 * bytes_quarter
        if ctx.enforce and not state_bounded:
            failures.append(
                f"streaming state grew with the stream: {bytes_end} bytes "
                f"after {total_chunks} chunks vs {bytes_quarter} after "
                f"{quarter_chunks}"
            )
    print(
        f"streaming: {result.stats.runs_seen} runs in "
        f"{result.stats.chunks_folded} chunks of {chunk_hours}h, "
        f"{timed.duration:.3f}s ({runs_per_s:.0f} runs/s), peak RSS "
        f"{_mib(sampler.peak_bytes)}, state {bytes_quarter}->{bytes_end} bytes "
        "— artifacts identical"
    )
    return {"streaming": {
        "chunk_hours": chunk_hours,
        "chunks": result.stats.chunks_folded,
        "runs": result.stats.runs_seen,
        "seconds": round(timed.duration, 4),
        "runs_per_second": round(runs_per_s, 1),
        "peak_rss_bytes": sampler.peak_bytes,
        "state_bytes_quarter": bytes_quarter,
        "state_bytes_end": bytes_end,
        "state_bounded": state_bounded,
        "state_bound_enforced": ctx.enforce,
        "parity": parity,
    }}, failures


def stage_store(ctx: BenchContext):
    """Out-of-core sharded triple store over a synthetic feed.

    Builds the store serially and as parallel segments (digest parity
    always; :data:`MIN_STORE_BUILD_SPEEDUP` where pools can win), then
    analyzes it shard by shard under an RSS sampler: the peak RSS delta
    must stay under :data:`STORE_RSS_GATE` of what materializing the
    tuples as Python triples would cost, and full mode gates
    :data:`MIN_STORE_TUPLES_PER_SECOND`.  The in-RAM parity pass runs
    after the gated region so its allocations cannot pollute the gate.
    """
    from repro.store import (
        analyze_store,
        build_store_from_columns,
        parallel_build_store,
        synthetic_triple_batches,
    )

    args = ctx.args
    scale = ctx.scale["store"]
    tuples = scale["tuples"]
    source = {"kind": "synthetic", "seed": args.seed}

    def feed():
        return synthetic_triple_batches(
            tuples, batch_rows=scale["batch_rows"], seed=args.seed,
            v4_pool=scale["v4_pool"], v6_pool=scale["v6_pool"],
        )

    failures = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        with _span("build") as build_span:
            store = build_store_from_columns(
                feed(), Path(tmp) / "store", shards=scale["shards"], source=source
            )
        build_rate = tuples / max(build_span.duration, 1e-9)
        print(
            f"store: built {tuples} tuples into {store.shards} "
            f"shard(s), {store.nbytes / 2**20:.0f} MiB on disk, "
            f"{build_span.duration:.2f}s ({build_rate:.0f} tuples/s)"
        )

        # Always exercised (serially on one core, so CI still covers the
        # segment writer and compaction) with digest parity enforced.
        with _span("build_parallel") as parallel_span:
            parallel_store = parallel_build_store(
                feed(), Path(tmp) / "store-parallel", shards=scale["shards"],
                workers=args.workers, segment_rows=scale["segment_rows"],
                source=source,
            )
        parallel_rate = tuples / max(parallel_span.duration, 1e-9)
        digest_match = parallel_store.digest() == store.digest()
        if not digest_match:
            failures.append("parallel store build digest differs from serial build")
        build_speedup = build_span.duration / max(parallel_span.duration, 1e-9)
        build_speedup_enforced = _gate_pool_speedup(ctx)
        print(
            f"store: parallel build ({args.workers} workers on "
            f"{os.cpu_count() or 1} core(s)) {parallel_span.duration:.2f}s "
            f"({parallel_rate:.0f} tuples/s), speedup {build_speedup:.2f}x"
            + ("" if build_speedup_enforced else " (not enforced)")
            + ", digest " + ("identical" if digest_match else "DIVERGED")
        )
        if build_speedup_enforced and build_speedup < MIN_STORE_BUILD_SPEEDUP:
            failures.append(
                f"parallel store build speedup {build_speedup:.2f}x below "
                f"required {MIN_STORE_BUILD_SPEEDUP:.2f}x"
            )
        # Drop the parallel copy before the RSS-gated analyze pass —
        # at full scale it doubles the stage's disk footprint.
        shutil.rmtree(parallel_store.directory, ignore_errors=True)

        footprint = _materialized_triple_bytes(tuples)
        rss_start = current_rss_bytes()
        with RssSampler() as sampler, _span("analyze") as analyze_span:
            analysis = analyze_store(
                store, workers=args.workers, block_rows=scale["block_rows"]
            )
        analyze_rate = tuples / max(analyze_span.duration, 1e-9)
        rss_delta = _rss_delta(sampler, rss_start)
        rss_fraction = rss_delta / footprint if rss_delta is not None else None
        if rss_fraction is not None and rss_fraction > STORE_RSS_GATE:
            failures.append(
                f"store analyze peak RSS delta {_mib(rss_delta)} exceeds "
                f"{STORE_RSS_GATE:.0%} of the {_mib(footprint)} "
                "materialized-triples footprint"
            )
        if ctx.enforce and analyze_rate < MIN_STORE_TUPLES_PER_SECOND:
            failures.append(
                f"store analyze throughput {analyze_rate:.0f} tuples/s "
                f"below required {MIN_STORE_TUPLES_PER_SECOND:.0f}"
            )
        parity = _store_parity(store, analysis)
        if not parity:
            failures.append(
                "store parity violated: out-of-core != in-RAM columnar artifacts"
            )
        rss_text = (
            f"{_mib(rss_delta)} ({rss_fraction:.1%} of {_mib(footprint)} "
            f"materialized, gate {STORE_RSS_GATE:.0%})"
            if rss_fraction is not None
            else "n/a"
        )
        print(
            f"store: analyzed out-of-core in {analyze_span.duration:.2f}s "
            f"({analyze_rate:.0f} tuples/s), {analysis.duration_count} runs, "
            f"peak RSS delta {rss_text} — artifacts identical"
        )
        return {"store": {
            "tuples": tuples,
            "shards": store.shards,
            "batch_rows": scale["batch_rows"],
            "block_rows": scale["block_rows"],
            "store_bytes": store.nbytes,
            "digest": store.digest(),
            "build_seconds": round(build_span.duration, 4),
            "build_tuples_per_second": round(build_rate, 1),
            "segment_rows": scale["segment_rows"],
            "build_workers": args.workers,
            "build_parallel_seconds": round(parallel_span.duration, 4),
            "build_parallel_tuples_per_second": round(parallel_rate, 1),
            "build_speedup": round(build_speedup, 3),
            "build_speedup_enforced": build_speedup_enforced,
            "min_build_speedup": MIN_STORE_BUILD_SPEEDUP,
            "parallel_digest_match": digest_match,
            "analyze_seconds": round(analyze_span.duration, 4),
            "analyze_tuples_per_second": round(analyze_rate, 1),
            "throughput_enforced": ctx.enforce,
            "min_analyze_tuples_per_second": MIN_STORE_TUPLES_PER_SECOND,
            "associations": analysis.duration_count,
            "distinct_v4": len(analysis.v4_keys),
            "distinct_v6": len(analysis.v6_keys),
            "peak_rss_delta_bytes": rss_delta,
            "materialized_triples_bytes": footprint,
            "rss_fraction_of_materialized": (
                round(rss_fraction, 4) if rss_fraction is not None else None
            ),
            "rss_gate_fraction": STORE_RSS_GATE,
            "parity": parity,
        }}, failures


def stage_report(ctx: BenchContext):
    """The end-to-end fused report suite, serial and pooled.

    All artifacts plus periodicity, with the column packs dropped first
    so each run pays its own packing.  Both runs must equal the ``py``
    artifacts, and in full mode the serial one must beat the summed
    ``py`` stages.  Records the peak-RSS delta of each run, the pooled
    one being the zero-copy worker fan-out.
    """
    atlas = ctx.scenarios["atlas"]
    py_results, py_timings = ctx.analysis["py"]

    def _report_suite(name, workers=None):
        atlas.invalidate_analysis_columns()
        rss_start = current_rss_bytes()
        with RssSampler() as sampler, _span(name) as timed:
            analysis = analyze_atlas_scenario(atlas, engine="fused", workers=workers)
            periods = periodicity_for_scenario(atlas, min_probes=2, engine="fused")
        return analysis, periods, timed.duration, _rss_delta(sampler, rss_start)

    fused, fused_periods, fused_s, fused_rss = _report_suite("fused")
    pooled, pooled_periods, pooled_s, pooled_rss = _report_suite(
        "fused_workers", workers=ctx.args.workers
    )
    failures = []
    parity = (
        list(fused.table1.values()) == py_results["table1"]
        and fused.figure1 == py_results["figure1"]
        and fused.figure5 == py_results["figure5"]
        and fused.table2 == py_results["table2"]
        and fused_periods == py_results["periodicity"]
    )
    if not parity:
        failures.append("report stage parity violated: fused != py artifacts")
    workers_parity = pooled == fused and pooled_periods == fused_periods
    if not workers_parity:
        failures.append("report stage parity violated: fused workers != fused serial")
    py_s = sum(py_timings.values())
    speedup = py_s / max(fused_s, 1e-9)
    if ctx.enforce and fused_s >= py_s:
        failures.append(f"fused end-to-end report {fused_s:.3f}s not faster "
                        f"than the py reference {py_s:.3f}s")
    print(
        f"report: py {py_s:.3f}s, fused {fused_s:.3f}s ({speedup:.2f}x, peak "
        f"RSS delta {_mib(fused_rss)}), fused {ctx.args.workers} workers "
        f"{pooled_s:.3f}s ({_mib(pooled_rss)}) — artifacts identical"
    )
    return {"report": {
        "py_seconds": round(py_s, 4),
        "fused_seconds": round(fused_s, 4),
        "fused_speedup": round(speedup, 4),
        "fused_workers_seconds": round(pooled_s, 4),
        "workers": ctx.args.workers,
        "fused_peak_rss_delta_bytes": fused_rss,
        "fused_workers_peak_rss_delta_bytes": pooled_rss,
        "parity": parity,
        "workers_parity": workers_parity,
        "speedup_enforced": ctx.enforce,
    }}, failures


def stage_serve(ctx: BenchContext):
    """The ``repro.serve`` query engine.

    Times cold vs warm artifact latency and 64 coalesced queries batched
    vs sequential (:data:`MIN_SERVE_SPEEDUP` in full mode).  A warm
    registry must not recompute, and served results must equal direct
    ones for every query family on a small dedicated scenario.
    """
    registry = ArtifactRegistry(name="bench")
    engine = QueryEngine(ctx.scenarios["atlas"], registry=registry)
    observed = observed_prefixes(ctx.scenarios["atlas"], 4, 24)
    n_queries = 64
    queries = [StabilityQuery(observed[index % len(observed)])
               for index in range(n_queries)]
    with _span("cold") as cold:
        engine.run(queries[0])
    with _span("warm") as warm:
        engine.run(queries[0])
    with _span("sequential") as sequential:
        sequential_results = [engine.run(query) for query in queries]
    with _span("batched") as batched:
        batched_results = engine.run_batch(queries)
    failures = []
    if batched_results != sequential_results:
        failures.append("serve stage parity violated: batched != sequential results")
    if registry.stats.misses != 1:
        failures.append("serve stage recomputed analysis on a warm registry "
                        f"(misses={registry.stats.misses}, expected 1)")
    parity = serve_diffs(
        probes_per_as=2, years=0.4, seed=ctx.args.seed, max_prefixes=2, budget=4
    )
    failures.extend(f"serve stage parity violated: {diff}" for diff in parity)
    speedup = sequential.duration / max(batched.duration, 1e-9)
    if ctx.enforce and speedup < MIN_SERVE_SPEEDUP:
        failures.append(f"serve batching speedup {speedup:.2f}x below required "
                        f"{MIN_SERVE_SPEEDUP:.2f}x on {n_queries} coalesced queries")
    print(
        f"serve: cold {cold.duration:.3f}s, warm {warm.duration * 1e3:.2f}ms, "
        f"{n_queries} queries sequential {sequential.duration:.3f}s vs "
        f"batched {batched.duration:.3f}s ({speedup:.2f}x), "
        f"direct-parity diffs {len(parity)}"
    )
    return {"serve": {
        "cold_seconds": round(cold.duration, 4),
        "warm_seconds": round(warm.duration, 6),
        "queries": n_queries,
        "sequential_seconds": round(sequential.duration, 4),
        "batched_seconds": round(batched.duration, 4),
        "batch_speedup": round(speedup, 4),
        "min_batch_speedup": MIN_SERVE_SPEEDUP,
        "parity_diffs": len(parity),
        "registry": registry.stats.as_dict(),
        "artifact_bytes": registry.total_bytes,
        "speedup_enforced": ctx.enforce,
    }}, failures


def stage_obs(ctx: BenchContext):
    """The observability plane: the cost of telemetry and its invariance.

    A disabled-telemetry fused rerun right after the report stage (so it
    repacks the columns the report dropped) over the analysis stage's
    fused sum is ``disabled_overhead``, bounded by
    :data:`MAX_OBS_OVERHEAD`.  That rerun is also the warm-up for
    :data:`TELEMETRY_PAIRS` off/on pairs of the warm fused analysis, in
    alternating order: ``telemetry`` records each side's median and
    their ratio.  Every run must equal the analysis stage's fused
    artifacts, and pooled, cross-process stitched tracing must leave the
    scenario and artifacts bit-identical (always enforced).
    """
    atlas = ctx.scenarios["atlas"]
    fused_results, fused_timings = ctx.analysis["fused"]
    with telemetry(False), _span("disabled_rerun") as rerun:
        results, _ = _run_analysis(atlas, "fused")
    parity = {False: results == fused_results, True: True}
    seconds = {False: [], True: []}
    for pair in range(TELEMETRY_PAIRS):
        for enabled in (False, True) if pair % 2 == 0 else (True, False):
            name = "telemetry_on" if enabled else "telemetry_off"
            with telemetry(enabled), _span(name) as timed:
                results, _ = _run_analysis(atlas, "fused")
            seconds[enabled].append(timed.duration)
            parity[enabled] = parity[enabled] and results == fused_results
    failures = []
    if not parity[True]:
        failures.append(
            "telemetry parity violated: artifacts change with telemetry enabled"
        )
    if not parity[False]:
        failures.append("obs stage parity violated: instrumented rerun != reference")
    enabled_s = statistics.median(seconds[True])
    warm_disabled_s = statistics.median(seconds[False])
    ratio = enabled_s / max(warm_disabled_s, 1e-9)
    baseline_s = sum(fused_timings.values())
    overhead = rerun.duration / max(baseline_s, 1e-9)
    if ctx.enforce and overhead > MAX_OBS_OVERHEAD:
        failures.append(f"disabled-telemetry overhead {overhead:.3f}x exceeds "
                        f"allowed {MAX_OBS_OVERHEAD:.2f}x")
    atlas_scale = ctx.scale["atlas"]
    with _span("stitch_invariance") as stitch:
        stitch_diffs = telemetry_invariance_diffs(
            probes_per_as=max(4, atlas_scale["probes_per_as"]),
            years=max(0.4, atlas_scale["years"]),
            seed=ctx.args.seed,
            workers=2,
        )
    failures.extend(f"obs stage invariance violated: {diff}" for diff in stitch_diffs)
    print(f"telemetry: warm fused analysis {enabled_s:.3f}s with spans+metrics on "
          f"(off: {warm_disabled_s:.3f}s, {ratio:.2f}x, median of {TELEMETRY_PAIRS} "
          "pairs) — artifacts identical")
    print(
        f"obs: disabled-telemetry analysis {rerun.duration:.3f}s vs "
        f"{baseline_s:.3f}s baseline ({overhead:.2f}x"
        + ("" if ctx.enforce else ", not enforced")
        + f"), stitched pooled invariance {stitch.duration:.2f}s "
        + ("clean" if not stitch_diffs else f"{len(stitch_diffs)} DIFFS")
    )
    return {
        "telemetry": {
            "enabled_seconds": round(enabled_s, 4),
            "disabled_seconds": round(warm_disabled_s, 4),
            "ratio": round(ratio, 4),
            "parity": parity[True],
        },
        "obs": {
            "disabled_seconds": round(rerun.duration, 4),
            "baseline_seconds": round(baseline_s, 4),
            "disabled_overhead": round(overhead, 4),
            "max_overhead": MAX_OBS_OVERHEAD,
            "overhead_enforced": ctx.enforce,
            "stitch_seconds": round(stitch.duration, 4),
            "stitch_workers": 2,
            "stitch_diffs": len(stitch_diffs),
        },
    }, failures


#: The bench stages in run order: ``(span name, stage)``.  A stage
#: returns ``(payload sections, failure strings)``.
STAGES = (
    ("build", stage_build),
    ("cache", stage_cache),
    ("analysis", stage_analysis),
    ("streaming", stage_streaming),
    ("store", stage_store),
    ("report", stage_report),
    ("serve", stage_serve),
    ("obs", stage_obs),
)


def run_baseline(args: argparse.Namespace) -> dict:
    """Run :data:`STAGES`, record the payload, exit 1 on any failure."""
    ctx = BenchContext(args, CHECK_SCALE if args.check else FULL_SCALE,
                       enforce=not args.check)
    payload = {
        "mode": "check" if args.check else "full",
        "workers": args.workers,
        "cpu_count": os.cpu_count() or 1,
        "seed": args.seed,
    }
    failures = []
    with get_tracer().span("bench_baseline", mode=payload["mode"]):
        for name, stage in STAGES:
            with maybe_profile(f"bench_{name}"), _span(name):
                sections, stage_failures = stage(ctx)
            payload.update(sections)
            failures.extend(stage_failures)
    if os.environ.get(TELEMETRY_ENV, "").strip():
        print(f"telemetry trace written to {export_trace('bench_baseline')}")
    payload.update(peak_rss_bytes=current_rss_bytes(), deterministic=True)

    write_baseline("bench_baseline", payload, path=args.output)
    print(f"baseline written to {args.output}")
    history_path = append_history(
        "bench_baseline",
        {**payload, "ok": not failures},
        path=Path(args.output).with_name("BENCH_history.jsonl"),
    )
    print(f"run appended to {history_path}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        raise SystemExit(1)
    return payload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Time serial-vs-parallel scenario builds and record the baseline."
    )
    parser.add_argument("--check", action="store_true",
                        help="CI smoke mode: tiny scales, no speedup assertion")
    parser.add_argument("--workers", type=int, default=4,
                        help="parallel worker count to benchmark (default: 4)")
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--output", type=Path,
                        default=_REPO_ROOT / "BENCH_baseline.json",
                        help="baseline artifact path (default: repo root)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run_baseline(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
