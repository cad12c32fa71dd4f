"""Tripwire: the fast paths fail loudly, NumPy is assumed, one pool.

NumPy is a hard dependency (``pyproject.toml``), and the analysis knob
has exactly two engines: ``fused`` and the ``py`` reference oracle.  A
fast path that raises must surface the error rather than silently rerun
the reference.  This scan of ``src/repro/`` keeps the retired patterns
from creeping back: a catch-and-fallback error tuple, a NumPy
availability flag, an ``except ImportError`` guarding a NumPy(-backed)
import, or a call pinned to the retired ``"np"`` engine.

Process pools go through the one primitive in ``perf/parallel.py``: no
other module touches ``ProcessPoolExecutor`` or ``multiprocessing``,
unpicklable work is never rerouted to a serial path
(``_all_picklable``), and the primitive imports no domain package — the
stages that fan out own their tasks.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
SOURCES = sorted(SRC.rglob("*.py"))
POOL = SRC / "perf" / "parallel.py"

#: Retired identifiers and literals, matched as plain text.
BANNED_TEXT = (
    "FALLBACK_ERRORS",
    "_HAS_NUMPY",
    'engine="np"',
    "engine='np'",
    "_all_picklable",
)

#: Only the pool primitive may spell these.
POOL_ONLY_TEXT = ("ProcessPoolExecutor", "multiprocessing")

#: Packages whose work fans out through the primitive, never into it.
DOMAIN_PACKAGES = ("repro.bgp", "repro.cdn", "repro.netsim", "repro.store", "repro.core")


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


@pytest.mark.parametrize("name", POOL_ONLY_TEXT)
def test_pools_only_in_the_primitive(name):
    hits = [
        f"{path.relative_to(SRC)}:{number}"
        for path in SOURCES
        if path != POOL
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if name in line
    ]
    assert not hits, (
        f"{name} belongs in perf/parallel.py only (use map_streamed): "
        + ", ".join(hits)
    )


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.lineno, node.module


def test_pool_primitive_imports_no_domain_package():
    hits = [
        f"perf/parallel.py:{line} imports {module}"
        for line, module in _imported_modules(ast.parse(POOL.read_text()))
        if any(
            module == package or module.startswith(package + ".")
            for package in DOMAIN_PACKAGES
        )
    ]
    assert not hits, "domain fan-outs belong to their owners: " + ", ".join(hits)


def test_pool_primitive_has_one_of_each_part():
    """One pool site, one initializer, one wrapper, one merge, one state slot."""
    text = POOL.read_text()
    assert text.count("ProcessPoolExecutor(") == 1
    assert text.count("initializer=") == 1
    assert text.count("subtract_snapshots(") == 1  # the task wrapper
    assert text.count("adopt_worker_spans(") == 1  # the merge loop
    tree = ast.parse(text)
    state = {
        name
        for node in ast.walk(tree)
        if isinstance(node, ast.Global)
        for name in node.names
    }
    state |= {
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        and isinstance(node.value, (ast.Dict, ast.List, ast.Set))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and not target.id.startswith("__")
    }
    assert len(state) <= 1, f"more than one worker-state slot: {sorted(state)}"
