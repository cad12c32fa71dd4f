"""Tripwire: the columnar fast paths fail loudly, and NumPy is assumed.

NumPy is a hard dependency (``pyproject.toml``), and the analysis knob
has exactly two engines: ``fused`` and the ``py`` reference oracle.  A
fast path that raises must surface the error rather than silently rerun
the reference.  This scan of ``src/repro/`` keeps the retired patterns
from creeping back: a catch-and-fallback error tuple, a NumPy
availability flag, an ``except ImportError`` guarding a NumPy(-backed)
import, or a call pinned to the retired ``"np"`` engine.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
SOURCES = sorted(SRC.rglob("*.py"))

#: Retired identifiers and literals, matched as plain text.
BANNED_TEXT = ("FALLBACK_ERRORS", "_HAS_NUMPY", 'engine="np"', "engine='np'")


def _is_numpy_module(name: str) -> bool:
    """numpy itself, or one of the package's NumPy-backed ``*_np`` modules."""
    return name == "numpy" or name.startswith("numpy.") or name.endswith("_np")


def _imports_numpy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(_is_numpy_module(alias.name) for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return _is_numpy_module(node.module or "") or any(
            _is_numpy_module(alias.name) for alias in node.names
        )
    return False


def _catches_import_error(handler: ast.ExceptHandler) -> bool:
    caught = handler.type
    names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
    return any(
        isinstance(name, ast.Name) and name.id in ("ImportError", "ModuleNotFoundError")
        for name in names
    )


def _guarded_numpy_imports(tree: ast.AST):
    """Line numbers of ``try`` blocks importing NumPy under an ImportError catch."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Try):
            continue
        if not any(_catches_import_error(h) for h in node.handlers if h.type is not None):
            continue
        if any(_imports_numpy(inner) for stmt in node.body for inner in ast.walk(stmt)):
            yield node.lineno


def test_sources_found():
    assert len(SOURCES) > 50


@pytest.mark.parametrize("banned", BANNED_TEXT)
def test_no_retired_fallback_names(banned):
    hits = [
        f"{path.relative_to(SRC)}:{number}"
        for path in SOURCES
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if banned in line
    ]
    assert not hits, f"{banned!r} is retired but appears at: {', '.join(hits)}"


def test_no_import_error_guards_around_numpy():
    hits = [
        f"{path.relative_to(SRC)}:{line}"
        for path in SOURCES
        for line in _guarded_numpy_imports(ast.parse(path.read_text()))
    ]
    assert not hits, (
        "numpy is a hard dependency; drop the ImportError guards at: " + ", ".join(hits)
    )
