"""Measurement helpers shared by the perfbench workloads.

Everything here observes the program from outside: wall clocks around
public calls, the ``repro.obs`` span trees and counters the program
already records, and ``/proc`` for memory, CPU and I/O.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import platform
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


def median(values: Iterable[float]) -> float:
    """Median of ``values`` (0.0 for none)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolation percentile ``q`` in [0, 100] (0.0 for none)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low, high = math.floor(position), math.ceil(position)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(count: int) -> Optional[float]:
    """Highest of p99.9/p99/p90/p75 that leaves ten samples above it."""
    for q in (99.9, 99.0, 90.0, 75.0):
        if count * (1.0 - q / 100.0) >= 10:
            return q
    return None


def latency_summary(seconds: List[float]) -> Dict[str, Any]:
    """Median, tail percentile and sample count of op latencies, in ms."""
    q = tail_percentile(len(seconds))
    return {
        "samples": len(seconds),
        "min_ms": min(seconds, default=0.0) * 1e3,
        "p25_ms": percentile(seconds, 25.0) * 1e3,
        "p50_ms": median(seconds) * 1e3,
        "tail_q": q,
        "tail_ms": percentile(seconds, q) * 1e3 if q is not None else None,
    }


#: Iterations of the calibration loop: about 15 ms on a current server core.
CAL_ITERATIONS = 150_000
#: Calibration time taken after each operation, as a share of its duration.
CAL_SHARE = 0.1
#: Calibration time taken before the first operation.
CAL_FIRST_S = 0.3


def calibration_seconds() -> float:
    """One timing of a fixed pure-Python loop, the yardstick of host speed.

    The loop keeps no object alive, so its speed does not depend on what
    a workload left on the heap.
    """
    start = time.perf_counter()
    x = 0
    for i in range(CAL_ITERATIONS):
        x = (x ^ i) * 3 & 0xFFFF
    return time.perf_counter() - start


class HostSpeed:
    """Timings of the calibration loop, taken between operations.

    The speed of a shared host drifts by tens of percent within seconds
    and minutes, and the program's operations slow down with it.
    Dividing their times by calibration times of the same run (the
    ``cal`` unit) cancels much of that drift, which the program cannot
    move.  The loop runs in the measuring process, on the core its
    operations run on.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: Median calibration time of each :meth:`sample` call, in order.
        self.bursts: List[float] = []

    def sample(self, seconds: float) -> None:
        """Time the loop back to back for about ``seconds``, at least once."""
        burst = []
        deadline = time.perf_counter() + seconds
        while True:
            burst.append(calibration_seconds())
            if time.perf_counter() >= deadline:
                break
        self.samples.extend(burst)
        self.bursts.append(median(burst))

    def per_op(self, durations: List[float]) -> List[float]:
        """``durations`` in ``cal``, each by the bursts timed around it.

        Expects one :meth:`sample` call before the first operation and
        one after each, as :func:`run_for` makes when given this object;
        each operation is divided by the mean of the two bursts next to it.
        """
        bursts = self.bursts[-len(durations) - 1 :]
        return [2 * d / (bursts[i] + bursts[i + 1]) for i, d in enumerate(durations)]

    @property
    def cal_s(self) -> float:
        """Median seconds of one calibration loop."""
        return median(self.samples)

    def summary(self) -> Dict[str, Any]:
        """The calibration figures printed with a result."""
        return {"cal_ms": self.cal_s * 1e3, "cal_samples": len(self.samples)}


def run_for(
    seconds: float,
    op: Callable[[], Any],
    consume: Callable[[Any], Any] = lambda r: r,
    host: Optional[HostSpeed] = None,
) -> List[Tuple[float, Any]]:
    """Call ``op`` back to back until ``seconds`` of wall time have passed.

    Always calls it at least once.  ``consume`` runs untimed on each
    result, so checks need not hold every result until the end; with
    ``host``, the calibration loop is timed before the first call and
    after each call for a tenth of its duration.
    Returns ``(duration of op, consume(result))`` per call.
    """
    samples = []
    if host is not None:
        host.sample(CAL_FIRST_S)
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        result = op()
        duration = time.perf_counter() - start
        samples.append((duration, consume(result)))
        result = None
        if host is not None:
            host.sample(CAL_SHARE * duration)
        if time.perf_counter() >= deadline:
            return samples


def median_by_key(rows: List[Dict[str, float]]) -> Dict[str, float]:
    """Per key, the median over ``rows`` (all rows share their keys)."""
    return {key: median(row[key] for row in rows) for key in (rows[0] if rows else {})}


def repeat_median(times: int, step: Callable[[], Any]) -> Tuple[float, Any]:
    """Run ``step`` ``times`` times; median seconds and the last result."""
    durations = []
    result = None
    for _ in range(times):
        result = None  # let the previous result go before rebuilding
        start = time.perf_counter()
        result = step()
        durations.append(time.perf_counter() - start)
    return median(durations), result


# -- /proc readers -------------------------------------------------------------


def peak_rss_mib() -> float:
    """This process's peak resident set size (``VmHWM``) in MiB."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds consumed so far by process ``pid``."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def io_write_bytes() -> int:
    """Bytes this process has caused to be written to storage."""
    with open("/proc/self/io") as io:
        for line in io:
            if line.startswith("write_bytes:"):
                return int(line.split()[1])
    raise OSError("/proc/self/io has no write_bytes line")


# -- telemetry -----------------------------------------------------------------


@dataclass
class Trace:
    """One traced call: its duration, result, span trees and metrics."""

    seconds: float
    result: Any
    roots: list
    metrics: dict

    def spans(self) -> Dict[str, Dict[str, float]]:
        """Per span name: summed ``total`` and ``self`` seconds, and ``count``."""
        return span_totals(self.roots)

    def counter(self, name: str) -> float:
        """Unlabeled total of counter ``name`` recorded during the call."""
        return counter_total(self.metrics, name)


def traced(op: Callable[[], Any]) -> Trace:
    """Run ``op`` with the ``repro.obs`` tracer on, starting from empty."""
    from repro.obs import get_tracer, telemetry

    with telemetry(True, reset=True) as state:
        start = time.perf_counter()
        result = op()
        seconds = time.perf_counter() - start
        metrics = state.registry.snapshot()
    return Trace(seconds, result, list(get_tracer().roots), metrics)


def _covered(parent, children) -> float:
    """Seconds of ``parent`` covered by the union of its children."""
    intervals = sorted(
        (max(child.start, parent.start), min(child.end, parent.end))
        for child in children
        if child.start is not None and child.end is not None
    )
    covered = 0.0
    reach = parent.start
    for start, end in intervals:
        start = max(start, reach)
        if end > start:
            covered += end - start
            reach = end
    return covered


def span_totals(roots) -> Dict[str, Dict[str, float]]:
    """Summed duration, self time and count of every span name in ``roots``.

    A span's self time is its duration minus the part of it that its
    child spans cover.
    """
    totals: Dict[str, Dict[str, float]] = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        entry = totals.setdefault(node.name, {"total": 0.0, "self": 0.0, "count": 0})
        entry["total"] += node.duration
        entry["self"] += node.duration - _covered(node, node.children)
        entry["count"] += 1
        stack.extend(node.children)
    return totals


def counter_total(snapshot: dict, name: str) -> float:
    """Unlabeled total of counter ``name`` in a metrics snapshot."""
    return snapshot.get("counters", {}).get(name, {}).get("", 0)


def merged_buckets(snapshot: dict, name: str, keep=lambda key: True) -> Dict[float, float]:
    """Cumulative bucket counts of histogram ``name``, summed over series."""
    merged: Dict[float, float] = {}
    for key, data in snapshot.get("histograms", {}).get(name, {}).items():
        if keep(key):
            for bound, count in data["buckets"].items():
                merged[float(bound)] = merged.get(float(bound), 0) + count
    return merged


def subtract_buckets(after: Dict[float, float], before: Dict[float, float]) -> Dict[float, float]:
    """Bucket-wise ``after - before``."""
    return {bound: count - before.get(bound, 0) for bound, count in after.items()}


def bucket_quantile(buckets: Dict[float, float], q: float) -> float:
    """Quantile ``q`` in [0, 1] of cumulative ``le`` buckets, interpolated.

    Returns 0.0 for an empty histogram; an answer in the ``+Inf`` bucket
    is reported as the largest finite bound.
    """
    bounds = sorted(buckets)
    if not bounds or buckets[bounds[-1]] <= 0:
        return 0.0
    target = q * buckets[bounds[-1]]
    lower, below = 0.0, 0.0
    for bound in bounds:
        count = buckets[bound]
        if count >= target and count > below:
            if math.isinf(bound):
                return lower
            return lower + (bound - lower) * (target - below) / (count - below)
        lower, below = bound, count
    return lower


# -- oracles in forked children ------------------------------------------------


def _child(conn, fn, args) -> None:
    try:
        conn.send(("ok", fn(*args)))
    except BaseException:  # report any failure to the parent, then exit
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


class Forked:
    """``fn(*args)`` computed in a forked child process.

    Fork shares the (large, in-memory) arguments copy-on-write instead of
    pickling them; only the result travels back.  Callers fork only
    while the process runs no other thread.
    """

    def __init__(self, fn: Callable, *args: Any) -> None:
        context = multiprocessing.get_context("fork")
        self._conn, child_conn = context.Pipe(duplex=False)
        self._process = context.Process(target=_child, args=(child_conn, fn, args))
        self._process.start()
        child_conn.close()

    def result(self, timeout: float = 150.0) -> Any:
        """The child's return value; raises if it failed or timed out."""
        try:
            if not self._conn.poll(timeout):
                raise TimeoutError(f"oracle child did not answer within {timeout}s")
            status, value = self._conn.recv()
        except EOFError:
            raise RuntimeError("oracle child exited without a result") from None
        finally:
            self.close()
        if status != "ok":
            raise RuntimeError("oracle child failed:\n" + value)
        return value

    def close(self) -> None:
        """Stop and reap the child."""
        self._conn.close()
        if self._process.is_alive():
            self._process.terminate()
        self._process.join(10)
        if self._process.is_alive():
            self._process.kill()
            self._process.join()


# -- outcome bookkeeping -------------------------------------------------------


@dataclass
class Checks:
    """Operations attempted and failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def record(self, problems: List[str]) -> None:
        """Count one operation; it failed when ``problems`` is non-empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 8:
                self.problems.extend(problems[: 8 - len(self.problems)])


def stamp(workload: str, seed: int, seconds: int, trace: bool, scale: dict) -> dict:
    """The facts that make two results comparable."""
    import numpy

    from repro.perf.cache import code_fingerprint

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scale": scale,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "code_fingerprint": code_fingerprint(),
    }


@dataclass
class Report:
    """What one workload run measured.

    ``end_to_end`` holds the untraced metrics, ``layers`` the per-layer
    metrics of the traced run (empty when the run was not traced), and
    ``details`` everything printed for people: sample counts, tails and
    the workload's own named figures; ``scale`` the input sizes.
    """

    checks: Checks
    end_to_end: Dict[str, float]
    layers: Dict[str, float]
    details: dict
    scale: dict
