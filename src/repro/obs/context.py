"""Cross-process trace propagation: one trace, many processes.

A :class:`TraceContext` is the serializable half of a span — the trace
id plus the id of the span that was open when work left the process.
The process-pool primitive in :mod:`repro.perf.parallel` captures one
via :func:`current_trace_context` right before fanning out, ships it to
every worker through the pool initializer (:func:`set_worker_context`),
and wraps each task in a ``pool/task`` span carrying the
context's ids.  The worker's finished span trees travel back with the
task result (:meth:`repro.obs.trace.Tracer.pop_roots`) and the parent
grafts them under its live tree (:func:`adopt_worker_spans`), so a
``--telemetry`` dump or ``trace_*.jsonl`` export shows **one coherent
tree** spanning the parent and every pool worker.

Wire format (documented in ``docs/data-formats.md``): the header string
``repro1-<trace_id>-<parent_span_id>`` — version tag, 16-hex-char trace
id, and the parent span id (``<pid hex>-<counter hex>``) — plus an
equivalent ``{"trace_id", "parent_span_id"}`` JSON object form.
Everything here is a no-op while telemetry is disabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

#: Version tag leading the textual trace-context header.
CONTEXT_VERSION = "repro1"


@dataclass(frozen=True)
class TraceContext:
    """The portable identity of an open span: trace id + parent span id.

    ``parent_span_id`` is ``""`` when the context was captured with no
    span open (the remote spans then stitch in as roots).
    """

    trace_id: str
    parent_span_id: str = ""

    def to_header(self) -> str:
        """The ``repro1-<trace_id>-<parent_span_id>`` header string."""
        return f"{CONTEXT_VERSION}-{self.trace_id}-{self.parent_span_id}"

    @classmethod
    def from_header(cls, header: str) -> "TraceContext":
        """Parse a header string (raises ``ValueError`` when malformed)."""
        version, _, rest = str(header).partition("-")
        if version != CONTEXT_VERSION or not rest:
            raise ValueError(f"not a {CONTEXT_VERSION} trace-context header: {header!r}")
        trace_id, _, parent = rest.partition("-")
        if not trace_id:
            raise ValueError(f"trace-context header missing trace id: {header!r}")
        return cls(trace_id=trace_id, parent_span_id=parent)

    def to_dict(self) -> Dict[str, str]:
        """JSON object form of this context."""
        return {"trace_id": self.trace_id, "parent_span_id": self.parent_span_id}

    @classmethod
    def from_dict(cls, payload: Dict[str, str]) -> "TraceContext":
        """Parse the JSON object form (raises ``ValueError`` when malformed)."""
        trace_id = payload.get("trace_id")
        if not trace_id:
            raise ValueError(f"trace context missing trace_id: {payload!r}")
        return cls(
            trace_id=str(trace_id),
            parent_span_id=str(payload.get("parent_span_id") or ""),
        )


def current_trace_context() -> Optional[TraceContext]:
    """The context of the innermost open span (None while disabled).

    Captured by the pool fan-out sites immediately before spawning
    workers, so stitched worker spans name the span that was live at
    hand-off time.
    """
    from repro.obs import get_tracer, telemetry_enabled

    if not telemetry_enabled():
        return None
    tracer = get_tracer()
    current = tracer.current()
    parent_id = current.span_id if current is not None and current.span_id else ""
    return TraceContext(trace_id=tracer.trace_id, parent_span_id=parent_id)


# ---------------------------------------------------------------------------
# Worker-process side
# ---------------------------------------------------------------------------

#: The context installed by the pool initializer in this worker process.
_WORKER_CONTEXT: Optional[TraceContext] = None


def set_worker_context(context: Optional[TraceContext]) -> None:
    """Install the parent's trace context in this worker process.

    Called from the pool initializer after telemetry is mirrored; also
    re-tags the worker tracer with the parent's trace id so every
    export from this process names the same trace.
    """
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context
    if context is not None:
        from repro.obs import get_tracer

        get_tracer().trace_id = context.trace_id


def get_worker_context() -> Optional[TraceContext]:
    """The trace context installed in this worker (None outside pools)."""
    return _WORKER_CONTEXT


def context_attrs(context: Optional[TraceContext]) -> Dict[str, str]:
    """Span attributes advertising ``context`` ({} when None)."""
    if context is None:
        return {}
    attrs = {"trace_id": context.trace_id}
    if context.parent_span_id:
        attrs["parent_span_id"] = context.parent_span_id
    return attrs


def adopt_worker_spans(nodes: Optional[Sequence[dict]]) -> List:
    """Stitch a worker's span buffer under the span open on this thread.

    The parent-side half of propagation: pool result merges pass each
    task's shipped buffer here as the result drains, so adoption order
    follows submission order and the stitched tree is deterministic
    regardless of worker scheduling.  No-op for empty buffers or while
    telemetry is disabled.
    """
    from repro.obs import get_tracer, telemetry_enabled

    if not nodes or not telemetry_enabled():
        return []
    return get_tracer().adopt(nodes)


__all__ = [
    "CONTEXT_VERSION",
    "TraceContext",
    "adopt_worker_spans",
    "context_attrs",
    "current_trace_context",
    "get_worker_context",
    "set_worker_context",
]
