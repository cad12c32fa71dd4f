"""The analysis-engine knob shared by every columnar/pure-Python split.

Both the report layer (:mod:`repro.core.report`) and the collection
layer (:mod:`repro.atlas.platform`) offer two bit-identical
implementations of their hot paths: the columnar fast path (the fused
single-pass engine of :mod:`repro.core.fused` and the NumPy kernels it
is built from) and the pure-Python reference oracle.  This module owns
the single knob selecting between them, so layers below the report can
resolve the engine without importing it (the report layer imports the
sanitization pipeline, which imports the platform — a cycle if the knob
lived in ``report``).

A fast path that raises does not fall back to the reference: the error
propagates, so a defect in the columnar engine can never hide behind a
silently slower correct answer.
"""

from __future__ import annotations

import os
from typing import Optional

#: Environment override for the default analysis engine ("fused" or "py").
ENGINE_ENV = "REPRO_ANALYSIS_ENGINE"

#: Engines accepted by :func:`resolve_engine`: the columnar "fused"
#: engine (the default) and the pure-Python "py" reference oracle.
ENGINES = ("fused", "py")


def resolve_engine(engine: Optional[str] = None) -> str:
    """Effective analysis engine: explicit value, else the environment,
    else ``"fused"``.  Anything outside :data:`ENGINES` raises."""
    if engine is None:
        engine = os.environ.get(ENGINE_ENV, "").strip().lower() or "fused"
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    return engine


__all__ = [
    "ENGINES",
    "ENGINE_ENV",
    "resolve_engine",
]
