"""JSON wire format shared by ``repro report --json`` and the serve API.

The serving layer and the CLI export the same artifact payloads, so the
serialization rules live here once: dataclasses become objects keyed by
field name, address/prefix types become their canonical string form, and
NumPy scalars (which leak out of the fused engine) collapse to plain
Python numbers.  Everything the helpers emit round-trips through
``json.dumps`` untouched.
"""

from __future__ import annotations

import json
import re
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any, Dict, Optional

#: Wire shape of a trace id: 8-32 lowercase hex chars (the tracer mints
#: 16; foreign callers may propagate their own width).
_TRACE_ID = re.compile(r"^[0-9a-f]{8,32}$")


def request_trace_id(payload: Optional[Dict[str, Any]]) -> str:
    """The trace id of one ``POST /query`` request.

    A client may propagate its own id via a ``"trace_id"`` key in the
    request body (ignored by :func:`repro.serve.queries.query_from_dict`,
    so it rides alongside the query fields); anything absent or
    malformed gets a freshly minted id.  The id is echoed in the
    response document and keys the flight-recorder / slow-query-log
    entries, so one id follows the request end to end.
    """
    from repro.obs.trace import new_trace_id

    supplied = (payload or {}).get("trace_id")
    if isinstance(supplied, str) and _TRACE_ID.match(supplied):
        return supplied
    return new_trace_id()


def jsonable(value: Any) -> Any:
    """Recursively convert ``value`` into JSON-encodable builtins.

    Dataclasses map to ``{field: value}`` objects, mappings and
    sequences recurse, NumPy scalars unwrap via ``.item()``, and
    anything else (``IPPrefix``, ``IPv4Address``, ``Path``...) falls
    back to ``str`` — the canonical text form every parser in
    :mod:`repro.io` already accepts.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        try:
            ordered = sorted(value)
        except TypeError:
            ordered = list(value)
        return [jsonable(item) for item in ordered]
    item = getattr(value, "item", None)
    if callable(item):  # numpy scalar
        try:
            return jsonable(item())
        except (TypeError, ValueError):
            pass
    return str(value)


def report_payload(
    engine: str,
    table1: Dict[str, Any],
    table2: Dict[str, Any],
    v4_periods: Dict[str, float],
    v6_periods: Dict[str, float],
    scenario: Optional[Any] = None,
) -> Dict[str, Any]:
    """The machine-readable ``repro report`` document.

    ``table1``/``table2`` map AS name to the row dataclasses of
    :mod:`repro.core.report`; the scenario (when given) contributes the
    run parameters so a payload is self-describing.
    """
    payload: Dict[str, Any] = {
        "format": "repro-report/1",
        "engine": engine,
        "table1": jsonable(table1),
        "table2": jsonable(table2),
        "periodicity": {
            "v4": jsonable(v4_periods),
            "v6": jsonable(v6_periods),
        },
    }
    if scenario is not None:
        payload["scenario"] = {
            "networks": len(scenario.isps),
            "probes": len(scenario.probes),
            "end_hour": scenario.end_hour,
        }
    return payload


def write_json(payload: Dict[str, Any], path: Path) -> Path:
    """Write ``payload`` (already jsonable) to ``path``, pretty-printed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


__all__ = ["jsonable", "report_payload", "request_trace_id", "write_json"]
