"""Process-pool fan-out: one ordered, bounded-in-flight map.

Every embarrassingly parallel stage of the reproduction fans out through
:func:`map_streamed`, called from the module that owns the stage's data:

* per-ISP simulations (:func:`repro.netsim.sim.run_isp_simulations`),
* per-population CDN collection
  (:func:`repro.cdn.collector.collect_associations`),
* the triple store's shard kernels, segment writers and compaction
  merges (:func:`repro.store.kernels.analyze_store`,
  :mod:`repro.store.segments`),
* the per-AS fused analysis (:func:`repro.core.fused.run_fused_analysis`).

The determinism contract: a ``workers=N`` run is **bit-identical** to
the serial run.  Each unit is seeded independently of scheduling order
and results come back in submission order, so only the owners' own
merge logic decides the outcome.

One pool, one initializer, one worker-state slot: an optional
``shared`` value is pickled once in the parent and unpickled once per
worker, then handed to every task.  Nothing falls back to the serial
path: a task, unit or shared value that cannot be pickled raises out of
the call.

Telemetry crosses the pool boundary in both directions: the initializer
ships the parent's enabled flag and
:class:`~repro.obs.context.TraceContext`, each task runs inside a
``pool/task`` span, and the worker's metric delta + finished span trees
travel back with the result, merged/stitched in submission order — one
coherent trace tree per run regardless of worker count.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from collections import deque
from collections.abc import Sized
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Iterator, Optional

from repro.obs import (
    enable_telemetry,
    get_logger,
    get_registry,
    get_tracer,
    metric_inc,
    span,
    subtract_snapshots,
    telemetry_enabled,
)
from repro.obs.context import (
    TraceContext,
    adopt_worker_spans,
    context_attrs,
    current_trace_context,
    get_worker_context,
    set_worker_context,
)

_log = get_logger("perf.parallel")

#: Environment override for the default worker count ("auto" = one per core).
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: Optional[int] = None) -> int:
    """Effective worker count: explicit value, else ``$REPRO_WORKERS``, else 1."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip().lower()
        if not raw:
            return 1
        if raw in ("auto", "max"):
            return max(1, os.cpu_count() or 1)
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(
                f"${WORKERS_ENV} must be an integer, 'auto' or 'max', got {raw!r}"
            ) from None
    workers = int(workers)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def effective_workers(workers: Optional[int] = None, units: Optional[int] = None) -> int:
    """Workers actually worth spawning for ``units`` work items.

    Resolves ``workers`` (:func:`resolve_workers`), then clamps it to
    ``os.cpu_count()`` and — when the unit count is known — to
    ``units``: with a single core (or a single unit) a pool only adds
    pickling overhead, so an effective count of 1 means "run the plain
    serial loop".
    """
    if units is not None and units < 1:
        return 1
    limit = os.cpu_count() or 1
    if units is not None:
        limit = min(limit, units)
    return max(1, min(resolve_workers(workers), limit))


def _mp_context():
    """Prefer fork (cheap, inherits imports); fall back to the default."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


#: The worker-process state slot: the pool's ``shared`` value, installed
#: by :func:`_worker_init` (None when the pool has no shared value).
_worker_shared = None


def _worker_init(
    telemetry: bool, context: Optional[TraceContext], shared_blob: Optional[bytes]
) -> None:
    """Pool initializer: install the shared value and mirror telemetry.

    The shared value arrives pickled and is unpickled once per worker,
    so a value whose pickle reopens a file by path (a triple store, a
    saved column arena) is mapped by every worker instead of copied.
    Under ``fork`` the child inherits the telemetry flag anyway; under
    ``spawn`` this is what turns the child's registry on.  When
    enabled, the inherited tracer is *detached* — a forked child starts
    with a copy of the parent's finished roots and open-span stack,
    neither of which this worker should re-ship — and the parent's
    :class:`~repro.obs.context.TraceContext` is installed so every span
    the worker records belongs to the parent's trace.
    """
    global _worker_shared
    if shared_blob is not None:
        _worker_shared = pickle.loads(shared_blob)
    if telemetry:
        enable_telemetry()
        get_tracer().detach()
        set_worker_context(context)


def _run_task(payload):
    """Run one unit in a worker, capturing its metric delta and spans.

    Returns ``(result, delta_or_None, spans_or_None)``.  The delta is
    the difference between the worker registry before and after the
    task (a forked child starts with a *copy* of the parent's counts),
    so merging it in the parent never double-counts.  Each task also
    tallies ``pool.tasks{kind=,worker=}`` — the worker-utilization
    signal — and runs inside a ``pool/task`` span tagged with the
    propagated trace context; the span trees the task finished are
    popped off the worker tracer and shipped back with the result for
    the parent to stitch (:func:`repro.obs.context.adopt_worker_spans`).
    """
    task, unit, kind = payload
    args = (unit,) if _worker_shared is None else (_worker_shared, unit)
    if not telemetry_enabled():
        return task(*args), None, None
    registry = get_registry()
    tracer = get_tracer()
    baseline = len(tracer.roots)
    before = registry.snapshot()
    metric_inc("pool.tasks", kind=kind, worker=os.getpid())
    attrs = context_attrs(get_worker_context())
    with span("pool/task", kind=kind, worker=os.getpid(), **attrs):
        result = task(*args)
    delta = subtract_snapshots(registry.snapshot(), before)
    return result, delta, tracer.pop_roots(baseline)


def map_streamed(
    task,
    units: Iterable,
    workers: Optional[int] = None,
    kind: str = "stream",
    max_inflight: Optional[int] = None,
    shared=None,
) -> Iterator:
    """Yield ``task(unit)`` results in submission order, bounded fan-out.

    With a ``shared`` value each call is ``task(shared, unit)`` instead:
    the serial path passes the caller's own object, the pool ships it
    pickled once per worker.  ``task`` must pickle by reference (a
    module-level callable or a ``functools.partial`` of one).

    The worker count is :func:`effective_workers` of ``workers``,
    clamped to ``len(units)`` when ``units`` is sized.  With one
    effective worker this is a plain loop: nothing is pickled and no
    ``pool/task`` span is recorded.  Otherwise ``units`` may be an
    *unbounded* lazily generated stream (e.g. column slabs off a
    100M-row synthetic feed): at most ``max_inflight`` (default
    ``2 * workers``) units are in the pool at once, so parent memory
    stays bounded while unit generation overlaps worker execution.
    Worker telemetry deltas fold into the parent, and worker spans
    graft under the caller's open span, as each result is drained.  A
    task error — including a pickling error — propagates; the units
    not yet started are cancelled.
    """
    if max_inflight is not None and max_inflight < 1:
        raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
    effective = effective_workers(
        workers, len(units) if isinstance(units, Sized) else None
    )
    if effective <= 1:
        for unit in units:
            yield task(unit) if shared is None else task(shared, unit)
        return
    shared_blob = (
        None if shared is None else pickle.dumps(shared, pickle.HIGHEST_PROTOCOL)
    )
    registry = get_registry()
    inflight = max_inflight if max_inflight is not None else 2 * effective
    _log.debug(
        "fanning out",
        extra={"workers": effective, "max_inflight": inflight, "kind": kind},
    )
    with ProcessPoolExecutor(
        max_workers=effective,
        mp_context=_mp_context(),
        initializer=_worker_init,
        initargs=(telemetry_enabled(), current_trace_context(), shared_blob),
    ) as pool:
        pending: deque = deque()
        iterator = iter(units)
        exhausted = False
        try:
            while True:
                while not exhausted and len(pending) < inflight:
                    try:
                        unit = next(iterator)
                    except StopIteration:
                        exhausted = True
                        break
                    pending.append(pool.submit(_run_task, (task, unit, kind)))
                if not pending:
                    break
                result, delta, spans = pending.popleft().result()
                registry.merge(delta)
                adopt_worker_spans(spans)
                yield result
        except BaseException:
            for future in pending:
                future.cancel()
            raise


__all__ = [
    "WORKERS_ENV",
    "effective_workers",
    "map_streamed",
    "resolve_workers",
]
