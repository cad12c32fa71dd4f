"""Opt-in per-stage cProfile dumps for the benchmark harness.

Setting ``REPRO_PROFILE=1`` makes every stage wrapped in
:func:`maybe_profile` run under :mod:`cProfile` and drop two artifacts
per stage under ``benchmarks/results/`` (override the directory with
``REPRO_PROFILE_DIR``):

* ``profile_<stage>.pstats`` — the raw stats, for ``snakeviz`` /
  ``pstats`` digging, and
* ``profile_<stage>.txt`` — the top cumulative-time lines, readable
  without tooling.

With the variable unset (or ``0``/``false``/``off``) the context
manager is a no-op, so call sites can wrap stages unconditionally.
"""

from __future__ import annotations

import cProfile
import io
import os
import pstats
import re
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional

from repro.perf.timing import repo_root

#: Environment switch: truthy values enable per-stage profiling.
PROFILE_ENV = "REPRO_PROFILE"

#: Environment override for where profile artifacts land.
PROFILE_DIR_ENV = "REPRO_PROFILE_DIR"

#: Default artifact directory, relative to the repository root.
DEFAULT_PROFILE_DIR = Path("benchmarks") / "results"

_FALSEY = ("", "0", "false", "no", "off")


def profiling_enabled() -> bool:
    """Whether ``$REPRO_PROFILE`` asks for per-stage profiles."""
    return os.environ.get(PROFILE_ENV, "").strip().lower() not in _FALSEY


def profile_dir() -> Path:
    """Directory receiving profile artifacts (created on demand)."""
    override = os.environ.get(PROFILE_DIR_ENV, "").strip()
    if override:
        return Path(override)
    return repo_root() / DEFAULT_PROFILE_DIR


def _slug(stage: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", stage).strip("_") or "stage"


@contextmanager
def maybe_profile(stage: str, top: int = 40) -> Iterator[Optional[cProfile.Profile]]:
    """Profile the enclosed block when ``$REPRO_PROFILE`` is set.

    Yields the active :class:`cProfile.Profile` (or ``None`` when
    disabled) and writes ``profile_<stage>.pstats`` plus a human-readable
    ``profile_<stage>.txt`` (top ``top`` cumulative entries) on exit.
    """
    if not profiling_enabled():
        yield None
        return
    directory = profile_dir()
    directory.mkdir(parents=True, exist_ok=True)
    profile = cProfile.Profile()
    profile.enable()
    try:
        yield profile
    finally:
        profile.disable()
        slug = _slug(stage)
        profile.dump_stats(directory / f"profile_{slug}.pstats")
        buffer = io.StringIO()
        stats = pstats.Stats(profile, stream=buffer)
        stats.sort_stats("cumulative").print_stats(top)
        (directory / f"profile_{slug}.txt").write_text(buffer.getvalue())


__all__ = [
    "DEFAULT_PROFILE_DIR",
    "PROFILE_DIR_ENV",
    "PROFILE_ENV",
    "maybe_profile",
    "profile_dir",
    "profiling_enabled",
]
