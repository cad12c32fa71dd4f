"""The benchmark's metric names, units and what each one should move.

``BENCHMARK.json`` lists the same names; this table also records, for
every per-layer metric, the workload whose traced run measures it and
the end-to-end metric it should move there (the file format of
``BENCHMARK.json`` has no field for that mapping).

Every run reports every end-to-end metric, so each one has a meaning
on every workload:

* ``setup_s`` — median seconds of the workload's set-up step, repeated
  within the run: building the Atlas and CDN scenarios from the seed
  (analyze), generating the synthetic triple feed (store), starting a
  ``repro serve`` process until ``/healthz`` answers (serve).
* ``op_p50_cal`` — median latency of one operation: a re-analysis
  (analyze), a store build plus analyze (store), a single-query HTTP
  request as the client sees it (serve).
* ``items_per_cal`` — work finished per unit of measured wall time:
  sanitized probes (analyze), tuples built and analyzed (store),
  queries answered, each query of a batch counted (serve).
* ``peak_rss_mib`` — peak resident memory of the process doing the
  work; for serve, the server's own peak from ``GET /status``.

The ``cal`` unit is the time of a fixed pure-Python loop, timed in the
measuring process before the first operation and right after each one
(``common.HostSpeed``); for serve, right before and after the load.
The speed of a shared host drifts by tens of percent within seconds
and minutes; expressing times in ``cal`` cancels much of that drift,
and the program cannot move the loop.  Each result's details line also gives the same figures in
milliseconds and per second, with ``cal_ms``.

A traced run reports every per-layer metric; a layer that does not run
in the traced workload reports 0.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: name -> (unit, better)
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "op_p50_cal": ("cal", "lower"),
    "items_per_cal": ("1/cal", "higher"),
    "peak_rss_mib": ("MiB", "lower"),
}

#: name -> (unit, better, workload, end-to-end metric it should move)
PER_LAYER: Dict[str, Tuple[str, str, str, str]] = {
    # analyze set-up: the scenario-build layers.
    "netsim.simulate_s": ("s", "lower", "analyze", "setup_s"),
    "atlas.collect_s": ("s", "lower", "analyze", "setup_s"),
    "atlas.sanitize_s": ("s", "lower", "analyze", "setup_s"),
    "cdn.collect_s": ("s", "lower", "analyze", "setup_s"),
    "atlas.probes_kept_ratio": ("ratio", "higher", "analyze", "none: a work count"),
    "cdn.triples": ("count", "higher", "analyze", "none: a work count"),
    "perf.pool_tasks": ("count", "lower", "analyze", "setup_s"),
    # analysis time over build plus analysis time: why a cold run hides
    # analysis changes.
    "core.analysis_share": ("ratio", "lower", "analyze", "none: explains setup_s"),
    # analyze operations: the core analysis layer.
    "core.pack_s": ("s", "lower", "analyze", "op_p50_cal"),
    "core.table1_s": ("s", "lower", "analyze", "op_p50_cal"),
    "core.table2_s": ("s", "lower", "analyze", "op_p50_cal"),
    "core.figure1_s": ("s", "lower", "analyze", "op_p50_cal"),
    "core.figure5_s": ("s", "lower", "analyze", "op_p50_cal"),
    "core.fused_pass_s": ("s", "lower", "analyze", "op_p50_cal"),
    "core.assemble_s": ("s", "lower", "analyze", "op_p50_cal"),
    "core.periodicity_s": ("s", "lower", "analyze", "op_p50_cal"),
    "core.associations_s": ("s", "lower", "analyze", "op_p50_cal"),
    "core.fallbacks": ("count", "lower", "analyze", "op_p50_cal"),
    # store: writer, finalize and out-of-core kernels.
    "store.input_gen_s": ("s", "lower", "store", "setup_s"),
    "store.write_s": ("s", "lower", "store", "op_p50_cal"),
    "store.finalize_s": ("s", "lower", "store", "op_p50_cal"),
    "store.spills": ("count", "lower", "store", "op_p50_cal"),
    "store.io_write_bytes_per_tuple": ("B/tuple", "lower", "store", "op_p50_cal"),
    "store.analyze_s": ("s", "lower", "store", "op_p50_cal"),
    "store.shard_p50_ms": ("ms", "lower", "store", "op_p50_cal"),
    "store.merge_blocks": ("count", "lower", "store", "op_p50_cal"),
    "store.bytes_mapped_per_tuple": ("B/tuple", "lower", "store", "op_p50_cal"),
    "store.analyze_rss_delta_mib": ("MiB", "lower", "store", "peak_rss_mib"),
    "store.build_mtuples_per_s": ("Mtuple/s", "higher", "store", "items_per_cal"),
    "store.analyze_mtuples_per_s": ("Mtuple/s", "higher", "store", "items_per_cal"),
    "store.bytes_per_tuple": ("B/tuple", "lower", "store", "op_p50_cal"),
    # serve: server compute, transport and shared state.
    "serve.server_p50_ms": ("ms", "lower", "serve", "op_p50_cal"),
    "serve.server_sum_s": ("s", "lower", "serve", "op_p50_cal"),
    "serve.transport_ms": ("ms", "lower", "serve", "op_p50_cal"),
    "serve.batch_sum_s": ("s", "lower", "serve", "items_per_cal"),
    "serve.registry_hit_ratio": ("ratio", "higher", "serve", "items_per_cal"),
    "serve.artifact_computes": ("count", "lower", "serve", "items_per_cal"),
    "serve.server_cpu_s_per_kq": ("s", "lower", "serve", "items_per_cal"),
    "serve.client_cpu_share": ("ratio", "lower", "serve", "none: load generator headroom"),
    "serve.single_p99_ms": ("ms", "lower", "serve", "op_p50_cal"),
    "serve.batch_p50_ms": ("ms", "lower", "serve", "items_per_cal"),
    # every workload: the cost of tracing its main operation.
    "obs.trace_overhead_ratio": ("ratio", "lower", "all", "none: tracing cost"),
}
