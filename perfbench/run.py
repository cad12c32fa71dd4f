#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 10 --trace 0

Workloads: ``analyze``, ``store``, ``serve`` (see
``perfbench/README.md``).  The program runs from ``src/`` at the defaults
a user gets: any ``REPRO_*`` variable in the environment is removed
before the package is imported.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  The line before it holds
the run's stamp and details.  Temporary files live under
``.perfbench/`` in the repository root and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("analyze", "store", "serve")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _isolate() -> list:
    """Drop ``REPRO_*`` settings and put ``src/`` first on the import path."""
    dropped = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in dropped:
        del os.environ[name]
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)  # for child interpreters
    sys.path[:0] = [str(SRC), str(ROOT)]
    return dropped


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)  # unwinds, so child processes get stopped


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    dropped = _isolate()

    from perfbench.analyze import run_analyze
    from perfbench.common import HostSpeed, stamp
    from perfbench.layers import END_TO_END, PER_LAYER
    from perfbench.serve import run_serve
    from perfbench.store import run_store

    runner = {
        "analyze": run_analyze,
        "store": run_store,
        "serve": run_serve,
    }[args.workload]
    scratch = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        report = runner(args.seed, args.seconds, bool(args.trace), scratch, HostSpeed())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    if args.trace:
        table = {name: spec[0] for name, spec in PER_LAYER.items()}
        values = report.layers
    else:
        table = {name: spec[0] for name, spec in END_TO_END.items()}
        values = report.end_to_end
    unknown = set(values) - set(table)
    if unknown:
        raise KeyError(f"metrics missing from perfbench/layers.py: {sorted(unknown)}")
    metrics = {
        name: {"value": float(values.get(name, 0.0)), "unit": unit}
        for name, unit in table.items()
    }
    details = {
        "stamp": stamp(args.workload, args.seed, args.seconds, bool(args.trace), report.scale),
        "dropped_env": dropped,
        "problems": report.checks.problems,
        **report.details,
    }
    print(json.dumps({"details": details}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": report.checks.failed == 0,
                "attempted": report.checks.attempted,
                "failed": report.checks.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
