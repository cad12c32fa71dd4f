"""Perf artifacts and memory probes: ``BENCH_baseline.json``, the history, RSS.

Stage durations come from ``repro.obs`` spans; this module only records
them.  :func:`write_baseline` merges a named section into the repo-root
``BENCH_baseline.json``, the repository's perf trajectory artifact (the
benchmark session records scenario *build* and per-test *analysis*
timings there, ``scripts/bench_baseline.py`` its whole stage table), and
:func:`append_history` keeps every run in ``BENCH_history.jsonl``.
:func:`current_rss_bytes` and :class:`RssSampler` measure resident
memory for the stages that gate it.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Optional


def repo_root() -> Path:
    """The repository checkout root, or the CWD outside a checkout.

    ``src/repro/perf/timing.py`` is three levels below the repo root in
    a checkout, but when the package is installed (site-packages) that
    ancestor is a Python prefix that artifacts must never be written
    into — so the ancestor only counts when it actually looks like this
    repository (has a ``pyproject.toml``); otherwise artifacts land in
    the current working directory.
    """
    candidate = Path(__file__).resolve().parents[3]
    if (candidate / "pyproject.toml").is_file():
        return candidate
    return Path.cwd()


#: Repo-root perf artifact (CWD when installed outside a checkout).
DEFAULT_BASELINE_PATH = repo_root() / "BENCH_baseline.json"

#: Append-only run log kept next to the baseline artifact.
DEFAULT_HISTORY_PATH = DEFAULT_BASELINE_PATH.with_name("BENCH_history.jsonl")


def current_rss_bytes() -> Optional[int]:
    """This process's resident set size in bytes (``None`` if unknown).

    Reads ``VmRSS`` from ``/proc/self/status`` where available (Linux),
    falling back to ``resource.getrusage`` — whose ``ru_maxrss`` is the
    lifetime *peak* in kilobytes on Linux, so the fallback overstates
    the instantaneous value but still bounds it.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ImportError, ValueError):
        return None
    # Linux reports kilobytes; macOS reports bytes.
    return peak * 1024 if os.uname().sysname == "Linux" else peak


class RssSampler:
    """Background thread tracking peak resident memory over a region.

    Use as a context manager around the stage being measured; the
    ``peak_bytes`` property holds the largest RSS sample observed
    (``None`` when RSS could not be read on this platform).  Sampling
    happens on a daemon thread so the measured code needs no hooks, at
    the cost of granularity: a short-lived spike between samples can be
    missed.  The default 20 ms interval is fine for chunk-scale work.
    """

    def __init__(self, interval: float = 0.02) -> None:
        self.interval = float(interval)
        self.peak_bytes: Optional[int] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def sample(self) -> None:
        """Take one sample immediately (also called by the thread)."""
        rss = current_rss_bytes()
        if rss is not None and (self.peak_bytes is None or rss > self.peak_bytes):
            self.peak_bytes = rss

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def __enter__(self) -> "RssSampler":
        self.sample()
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.sample()


def read_baseline(path: Optional[os.PathLike] = None) -> dict:
    """The current ``BENCH_baseline.json`` contents ({} when absent/corrupt)."""
    target = Path(path or DEFAULT_BASELINE_PATH)
    try:
        data = json.loads(target.read_text())
    except (OSError, ValueError):
        return {}
    return data if isinstance(data, dict) else {}


def write_baseline(section: str, payload: dict, path: Optional[os.PathLike] = None) -> dict:
    """Merge ``payload`` under ``section`` into the baseline artifact.

    Other sections are preserved, so the benchmark harness and the
    bench-baseline script can each own their part of the file.  Returns
    the full merged document.
    """
    target = Path(path or DEFAULT_BASELINE_PATH)
    data = read_baseline(target)
    data[section] = payload
    data["updated"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    temp = target.with_name(f"{target.name}.tmp{os.getpid()}")
    temp.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    os.replace(temp, target)
    return data


def append_history(
    section: str, payload: dict, path: Optional[os.PathLike] = None
) -> Path:
    """Append one run's payload as a JSON line to ``BENCH_history.jsonl``.

    Where :func:`write_baseline` keeps only the latest run per section,
    the history file accumulates every run, so perf trends over time
    stay inspectable.  Returns the history file path.
    """
    target = Path(path or DEFAULT_HISTORY_PATH)
    record = {
        "section": section,
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        **payload,
    }
    with target.open("a") as stream:
        stream.write(json.dumps(record, sort_keys=True) + "\n")
    return target


__all__ = [
    "DEFAULT_BASELINE_PATH",
    "DEFAULT_HISTORY_PATH",
    "RssSampler",
    "append_history",
    "current_rss_bytes",
    "read_baseline",
    "repo_root",
    "write_baseline",
]
