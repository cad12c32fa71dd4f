"""The ``analyze`` workload: re-analysis of a built scenario.

Set-up builds an Atlas scenario (30 probes per AS, 2 years) and its CDN
scenario at the user defaults.  One operation drops the memoized column
packs and recomputes every Section 3/4/5 artifact: Table 1/2, Figures
1/5, periodicity, and the CDN association durations, degree counts and
box statistics.  Every operation is checked against the artifacts of
the pure-Python ``engine="py"`` reference, computed once per run in
forked children.  A traced run also traces the set-up builds, which
measures the scenario-build layers (netsim, atlas, cdn).
"""

from __future__ import annotations

import subprocess
import sys
import time
from collections import Counter
from typing import Any, Dict, List

from perfbench.common import (
    Checks,
    Forked,
    HostSpeed,
    Report,
    Trace,
    latency_summary,
    median,
    median_by_key,
    peak_rss_mib,
    repeat_median,
    run_for,
    traced,
)

#: The scenario the workload re-analyzes.
ANALYZE_ATLAS = {"probes_per_as": 30, "years": 2.0}
#: ``scripts/bench_baseline.py``'s full CDN scale.
CDN_SCALE = {
    "days": 60,
    "fixed_subscribers_per_registry": 300,
    "mobile_devices_per_registry": 200,
    "featured_subscribers": 100,
}

#: Scenario builds timed for set-up.
BUILD_REPEATS = 2
#: Seconds of untimed operations before timing starts.
WARMUP_S = 3.0


def _build(seed: int, atlas_scale: dict):
    """Both scenarios at the user defaults (serial, no cache)."""
    from repro.obs import span
    from repro.workloads import build_atlas_scenario, build_cdn_scenario

    atlas = build_atlas_scenario(seed=seed, **atlas_scale)
    with span("bench/cdn"):
        cdn = build_cdn_scenario(seed=seed, **CDN_SCALE)
    return atlas, cdn


def _associations_np(dataset) -> dict:
    """Figure 2-4 association artifacts through the columnar kernels."""
    import numpy as np

    from repro.bgp.registry import AccessKind
    from repro.core.associations import association_box_stats
    from repro.core.associations_np import (
        association_durations_np,
        box_stats_np,
        columns_from_triples,
        unpack_v6_degree_keys,
        v4_degree_counts_np,
        v6_degree_counts_np,
    )

    days, v4, v6 = columns_from_triples(dataset.all_triples())
    durations = association_durations_np(days, v4, v6)
    values, counts = np.unique(durations, return_counts=True)
    unique, hits = v4_degree_counts_np(v4, v6)
    return {
        "durations": dict(zip(values.tolist(), counts.tolist())),
        "box": box_stats_np(durations),
        "box_by_kind": {
            kind.value: association_box_stats(dataset.triples_by_kind(kind))
            for kind in (AccessKind.FIXED, AccessKind.MOBILE)
        },
        "v4_unique": unique,
        "v4_hits": hits,
        "v6_degree": unpack_v6_degree_keys(v6_degree_counts_np(v4, v6)),
    }


def _associations_py(dataset) -> dict:
    """The same artifacts through the pure-Python reference."""
    from repro.bgp.registry import AccessKind
    from repro.core.associations import (
        association_box_stats,
        association_durations,
        box_stats,
        v4_degree_counts,
        v6_degree_counts,
    )

    triples = dataset.all_triples()
    durations = association_durations(triples)
    unique, hits = v4_degree_counts(triples)
    return {
        "durations": dict(Counter(durations)),
        "box": box_stats(durations),
        "box_by_kind": {
            kind.value: association_box_stats(dataset.triples_by_kind(kind), engine="py")
            for kind in (AccessKind.FIXED, AccessKind.MOBILE)
        },
        "v4_unique": unique,
        "v4_hits": hits,
        "v6_degree": v6_degree_counts(triples),
    }


def _report_artifacts(analysis) -> dict:
    return {
        "table1": analysis.table1,
        "table2": analysis.table2,
        "figure1": analysis.figure1,
        "figure5": analysis.figure5,
    }


def _analyze(atlas, cdn, pack: bool = False) -> dict:
    """Every artifact at the default engine; ``pack`` times the column pack.

    Packing up front builds the memoized run columns the default engine
    would build lazily (per AS for ``np``, one global pack for
    ``fused``), so the traced operation does the same work as the
    untraced one while its pack time shows as its own span.
    """
    from repro.core.engine import resolve_engine
    from repro.obs import span
    from repro.workloads import analyze_atlas_scenario, periodicity_for_scenario

    if pack:
        with span("bench/pack"):
            if resolve_engine() == "fused":
                packs = [atlas.analysis_columns(None)]
            else:
                packs = [atlas.analysis_columns(isp.asn) for isp in atlas.isps.values()]
            for columns in packs:  # run columns are packed on first use
                columns.v4()
                columns.v6()
                columns.v6_prefix()
    artifacts = _report_artifacts(analyze_atlas_scenario(atlas))
    artifacts["periodicity"] = periodicity_for_scenario(atlas)
    with span("bench/associations"):
        artifacts["associations"] = _associations_np(cdn.dataset)
    return artifacts


def _oracle_report(atlas) -> dict:
    from repro.workloads import analyze_atlas_scenario

    return _report_artifacts(analyze_atlas_scenario(atlas, engine="py"))


def _oracle_rest(atlas, cdn) -> dict:
    from repro.workloads import periodicity_for_scenario

    return {
        "periodicity": periodicity_for_scenario(atlas, engine="py"),
        "associations": _associations_py(cdn.dataset),
    }


def _start_oracle(atlas, cdn) -> List[Forked]:
    """Compute the reference artifacts in two children, in parallel."""
    return [Forked(_oracle_report, atlas), Forked(_oracle_rest, atlas, cdn)]


def _join_oracle(children: List[Forked]) -> dict:
    oracle: Dict[str, Any] = {}
    try:
        for child in children:
            oracle.update(child.result())
    finally:
        for child in children:
            child.close()
    return oracle


def _mismatches(artifacts: dict, oracle: dict) -> List[str]:
    return [
        f"{name} differs from the py-engine oracle"
        for name in oracle
        if artifacts.get(name) != oracle[name]
    ]


def _build_layers(trace: Trace) -> Dict[str, float]:
    """Per-layer figures of one traced scenario build."""
    spans = trace.spans()

    def self_s(name):
        return spans.get(name, {}).get("self", 0.0)

    # The CDN build's own simulations belong to netsim, the rest to cdn.
    cdn_s = sum(
        root.duration
        - sum(c.duration for c in root.children if c.name == "collection/isp_simulations")
        for root in trace.roots
        if root.name == "bench/cdn"
    )
    return {
        "netsim.simulate_s": self_s("collection/isp_simulations"),
        "atlas.collect_s": self_s("collection/probes"),
        "atlas.sanitize_s": self_s("collection/sanitize"),
        "cdn.collect_s": cdn_s,
        "atlas.probes_kept_ratio": trace.counter("sanitize.probes_kept")
        / trace.counter("sanitize.probes_input"),
        "cdn.triples": trace.result[1].dataset.total_kept,
        "perf.pool_tasks": trace.counter("pool.tasks"),
    }


def _analyze_layers(trace: Trace) -> Dict[str, float]:
    """Per-layer figures of one traced re-analysis."""
    spans = trace.spans()

    def of(kind, name):
        return spans.get(name, {}).get(kind, 0.0)

    return {
        "core.pack_s": of("total", "bench/pack"),
        "core.table1_s": of("self", "analysis/table1"),
        "core.table2_s": of("self", "analysis/table2"),
        "core.figure1_s": of("self", "analysis/figure1"),
        "core.figure5_s": of("self", "analysis/figure5"),
        "core.fused_pass_s": of("total", "analysis/fused/pass"),
        "core.assemble_s": of("self", "analysis/report"),
        "core.periodicity_s": of("total", "analysis/periodicity"),
        "core.associations_s": of("total", "bench/associations"),
        "core.fallbacks": trace.counter("analysis.fallbacks")
        + trace.counter("analysis.fused.fallbacks"),
    }


def run_analyze(seed: int, seconds: int, trace: bool, scratch, host: HostSpeed) -> Report:
    """Re-analysis of a built scenario with the column packs dropped."""

    def build():
        return _build(seed, ANALYZE_ATLAS)

    setup_s, built = repeat_median(BUILD_REPEATS, (lambda: traced(build)) if trace else build)
    atlas, cdn = built.result if trace else built

    def op(pack=False):
        atlas.invalidate_analysis_columns()
        return _analyze(atlas, cdn, pack=pack)

    oracle = _join_oracle(_start_oracle(atlas, cdn))
    # Operations speed up over the first few dozen in a process; time
    # only after they have settled.
    warmups = len(run_for(WARMUP_S, op, lambda r: None))

    checks = Checks()

    def check(artifacts):
        checks.record(_mismatches(artifacts, oracle))

    latencies = [duration for duration, _ in run_for(seconds, op, check, host)]
    in_cal = host.per_op(latencies)
    probes = len(atlas.probes)
    end_to_end = {
        "setup_s": setup_s,
        "op_p50_cal": median(in_cal),
        "items_per_cal": probes * len(in_cal) / sum(in_cal),
        "peak_rss_mib": peak_rss_mib(),
    }
    details = {
        "op": latency_summary(latencies),
        "items_per_s": probes * len(latencies) / sum(latencies),
        "probes": probes,
        "warmup_ops": warmups,
        **host.summary(),
    }
    layers: Dict[str, float] = {}
    if trace:

        def consume(item: Trace):
            check(item.result)
            return item.seconds, _analyze_layers(item)

        rows = [row for _, row in run_for(seconds, lambda: traced(lambda: op(pack=True)), consume)]
        layers = {**_build_layers(built), **median_by_key([figures for _, figures in rows])}
        op_s = median(latencies)
        layers["core.analysis_share"] = op_s / (built.seconds + op_s)
        layers["obs.trace_overhead_ratio"] = median(s for s, _ in rows) / op_s
        details["traced_ops"] = len(rows)
    scale = {"atlas": ANALYZE_ATLAS, "cdn": CDN_SCALE}
    return Report(checks, end_to_end, layers, details, scale)
