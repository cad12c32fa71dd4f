"""The ``serve`` workload: a ``repro serve`` process under a closed loop.

The system under test is a separate ``repro serve --port 0`` process at
the CLI defaults.  Two client threads in this process (callers that wait
for each reply, so a closed loop) send a seeded schedule of requests
over HTTP: about 90% single queries and 10% batches of 32, over five
query families, with targets drawn uniformly from a seeded sample of
the prefixes observed in the same scenario.  Every answer is compared
with an in-process ``QueryEngine`` over the same seeded scenario.
"""

from __future__ import annotations

import json
import random
import re
import selectors
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from perfbench.common import (
    Checks,
    HostSpeed,
    Report,
    bucket_quantile,
    counter_total,
    cpu_seconds,
    latency_summary,
    median,
    merged_buckets,
    percentile,
    subtract_buckets,
)

#: The ``repro serve`` defaults, passed explicitly so that the server and
#: the in-process oracle build the same scenario.
ATLAS = {"probes_per_as": 15, "years": 2.0}
CLIENTS = 2
BATCH_SHARE = 0.1
BATCH_SIZE = 32
HITLIST_BUDGET = 32
#: Targets sampled per prefix family from the observed prefixes.
POOL_SIZE = 256
#: Server starts timed for set-up.
START_REPEATS = 2
START_TIMEOUT_S = 120.0
#: Seconds of calibration timed right before and right after the load;
#: during it, the loop would compete with the client threads.
HOST_SAMPLE_S = 0.5
#: In-process queries per side for the tracing-overhead ratio.
OVERHEAD_QUERIES = 300
MIB = 1 << 20
PR_SET_PDEATHSIG = 1

_LISTENING = re.compile(r"serving on (http://\S+:\d+)")


def _die_with_parent() -> None:
    """Ask Linux to SIGTERM this (child) process when its parent dies."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    libc.prctl(PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)


class Server:
    """A ``repro serve --port 0`` child process, stopped on ``close``."""

    def __init__(self, seed: int, log_path) -> None:
        from repro.serve import ServeClient

        self._log = open(log_path, "ab")
        began = time.perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
                "--seed", str(seed),
                "--probes-per-as", str(ATLAS["probes_per_as"]),
                "--years", str(ATLAS["years"]),
            ],
            stdout=subprocess.PIPE,
            stderr=self._log,
            # Even a benchmark killed outright must not leave a server behind.
            preexec_fn=_die_with_parent,
        )
        try:
            self.base_url = self._wait_for_url()
            self.client = ServeClient(base_url=self.base_url)
            self._wait_for_health()
        except BaseException:  # never leave a half-started server behind
            self.close()
            raise
        #: Seconds from launch until ``/healthz`` answered.
        self.start_s = time.perf_counter() - began

    def _wait_for_url(self) -> str:
        deadline = time.monotonic() + START_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(timeout=max(0.0, deadline - time.monotonic())):
                    break
                line = self.process.stdout.readline().decode("utf-8", "replace")
                if not line:
                    raise RuntimeError(f"repro serve exited with {self.process.wait()}")
                match = _LISTENING.search(line)
                if match:
                    return match.group(1)
        raise TimeoutError(f"repro serve did not listen within {START_TIMEOUT_S}s")

    def _wait_for_health(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            try:
                if self.client.health()["status"] == "ok":
                    return
            except OSError:
                if time.monotonic() > deadline:
                    raise
            time.sleep(0.01)

    def close(self) -> None:
        """Stop the server and wait until it has exited."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


def _pools(scenario, seed: int) -> Dict[str, List[dict]]:
    """Wire-form queries per family, targets sampled from observed prefixes."""
    from repro.serve import observed_prefixes, query_to_dict
    from repro.serve.queries import DualStackQuery, HitlistQuery, LifetimeQuery, StabilityQuery

    rng = random.Random(seed)
    v4 = observed_prefixes(scenario, 4, 24)
    v6 = observed_prefixes(scenario, 6, 48)

    def sample(prefixes):
        return rng.sample(prefixes, min(POOL_SIZE, len(prefixes)))

    queries = {
        "stability_v4": [StabilityQuery(p) for p in sample(v4)],
        "stability_v6": [StabilityQuery(p) for p in sample(v6)],
        "dualstack": [DualStackQuery(p) for p in sample(v4)],
        "hitlist": [HitlistQuery(p, budget=HITLIST_BUDGET, seed=seed) for p in sample(v6)],
        "lifetime": [LifetimeQuery(name) for name in scenario.isps],
    }
    return {family: [query_to_dict(q) for q in items] for family, items in queries.items()}


def _key(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def _oracle(scenario, pools: Dict[str, List[dict]]) -> Dict[str, dict]:
    """Expected wire answers, from an in-process engine on the same scenario."""
    from repro.serve import QueryEngine, query_from_dict, result_to_dict

    payloads = [payload for items in pools.values() for payload in items]
    results = QueryEngine(scenario).run_batch([query_from_dict(p) for p in payloads])
    return {
        _key(payload): json.loads(json.dumps(result_to_dict(result)))
        for payload, result in zip(payloads, results)
    }


class _Schedule:
    """One client's seeded, endless request sequence."""

    def __init__(self, seed: int, client: int, pools: Dict[str, List[dict]]) -> None:
        self._rng = random.Random(seed * 1009 + client)
        self._pools = pools
        self._families = sorted(pools)

    def _pick(self) -> dict:
        return self._rng.choice(self._pools[self._rng.choice(self._families)])

    def next(self) -> Tuple[str, dict]:
        if self._rng.random() < BATCH_SHARE:
            return "batch", {"queries": [self._pick() for _ in range(BATCH_SIZE)]}
        return "single", self._pick()


def _client_loop(client, schedule: _Schedule, oracle, deadline: float, out: list) -> None:
    """Closed loop: send the next request once the previous one answered."""
    while time.perf_counter() < deadline:
        kind, payload = schedule.next()
        start = time.perf_counter()
        problem: Optional[str] = None
        try:
            status, document = client.request("POST", "/query", payload)
        except Exception as exc:  # a refused or broken request is a failed one
            status, document, problem = None, None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        queries = payload["queries"] if kind == "batch" else [payload]
        if problem is None and status != 200:
            problem = f"HTTP {status}: {document}"
        if problem is None:
            answers = document.get("results") if kind == "batch" else [document.get("result")]
            wrong = sum(
                answer != oracle[_key(query)] for query, answer in zip(queries, answers or [])
            ) + abs(len(queries) - len(answers or []))
            if wrong:
                problem = f"{wrong} of {len(queries)} answers differ from the in-process engine"
        out.append((kind, latency, len(queries), problem))


def _overhead_ratio(scenario, schedule: _Schedule) -> float:
    """In-process single-query latency with the tracer on over off."""
    from repro.obs import telemetry
    from repro.serve import QueryEngine, query_from_dict

    engine = QueryEngine(scenario)
    queries = []
    while len(queries) < OVERHEAD_QUERIES:
        kind, payload = schedule.next()
        if kind == "single":
            queries.append(query_from_dict(payload))

    def latencies():
        out = []
        for query in queries:
            start = time.perf_counter()
            engine.run(query)
            out.append(time.perf_counter() - start)
        return median(out)

    latencies()  # warm the engine and its artifact
    untraced = latencies()
    with telemetry(True, reset=True):
        traced = latencies()
    return traced / untraced


def _series_sum(after: dict, before: dict, name: str, keep) -> float:
    def total(snapshot):
        series = snapshot.get("histograms", {}).get(name, {})
        return sum(data["sum"] for key, data in series.items() if keep(key))

    return total(after) - total(before)


def run_serve(seed: int, seconds: int, trace: bool, scratch, host: HostSpeed) -> Report:
    """Two closed-loop clients against a fresh ``repro serve`` process."""
    from repro.workloads import build_atlas_scenario

    log_path = scratch / "serve-stderr.log"
    starts = []
    for _ in range(START_REPEATS - 1):
        server = Server(seed, log_path)
        starts.append(server.start_s)
        server.close()
    server = Server(seed, log_path)
    starts.append(server.start_s)
    setup_s = median(starts)
    try:
        scenario = build_atlas_scenario(seed=seed, **ATLAS)
        pools = _pools(scenario, seed)
        oracle = _oracle(scenario, pools)

        host.sample(HOST_SAMPLE_S)
        before = server.client.metrics()
        server_cpu = cpu_seconds(server.process.pid)
        client_cpu = time.process_time()
        results: List[list] = [[] for _ in range(CLIENTS)]
        began = time.perf_counter()
        deadline = began + seconds
        threads = [
            threading.Thread(
                target=_client_loop,
                args=(server.client, _Schedule(seed, index, pools), oracle, deadline, out),
            )
            for index, out in enumerate(results)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(seconds + 120)
        wall = time.perf_counter() - began
        client_cpu = time.process_time() - client_cpu
        if any(thread.is_alive() for thread in threads):
            raise TimeoutError("a serve client did not finish")
        server_cpu = cpu_seconds(server.process.pid) - server_cpu
        after = server.client.metrics()
        process = server.client.process_info()
        host.sample(HOST_SAMPLE_S)
    finally:
        server.close()

    records = [record for out in results for record in out]
    checks = Checks()
    for _, _, _, problem in records:
        checks.record([problem] if problem else [])
    single = [latency for kind, latency, _, problem in records if kind == "single" and not problem]
    batch = [latency for kind, latency, _, problem in records if kind == "batch" and not problem]
    answered = sum(count for _, _, count, problem in records if not problem)
    end_to_end = {
        "setup_s": setup_s,
        "op_p50_cal": median(single) / host.cal_s,
        "items_per_cal": answered / wall * host.cal_s,
        "peak_rss_mib": process["peak_rss_bytes"] / MIB,
    }
    details = {
        "qps": answered / wall,
        **host.summary(),
        "single": latency_summary(single),
        "batch": latency_summary(batch),
        "queries_answered": answered,
        "clients": CLIENTS,
        "server_pid_peak_rss_mib": end_to_end["peak_rss_mib"],
    }
    layers: Dict[str, float] = {}
    if trace:
        def singles(key):
            return key != "kind=batch"

        server_single = subtract_buckets(
            merged_buckets(after, "serve.query.seconds", singles),
            merged_buckets(before, "serve.query.seconds", singles),
        )
        server_p50_ms = bucket_quantile(server_single, 0.5) * 1e3
        hits = counter_total(after, "serve.registry.hits") - counter_total(
            before, "serve.registry.hits"
        )
        misses = counter_total(after, "serve.registry.misses") - counter_total(
            before, "serve.registry.misses"
        )
        layers = {
            "serve.server_p50_ms": server_p50_ms,
            "serve.server_sum_s": _series_sum(after, before, "serve.query.seconds", singles),
            "serve.transport_ms": median(single) * 1e3 - server_p50_ms,
            "serve.batch_sum_s": _series_sum(
                after, before, "serve.batch.seconds", lambda key: True
            ),
            "serve.registry_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "serve.artifact_computes": counter_total(after, "serve.analysis.computes"),
            "serve.server_cpu_s_per_kq": server_cpu / answered * 1e3 if answered else 0.0,
            "serve.client_cpu_share": client_cpu / wall,
            "serve.single_p99_ms": percentile(single, 99.0) * 1e3,
            "serve.batch_p50_ms": median(batch) * 1e3,
            "obs.trace_overhead_ratio": _overhead_ratio(
                scenario, _Schedule(seed, CLIENTS, pools)
            ),
        }
    scale = {
        "atlas": ATLAS,
        "clients": CLIENTS,
        "batch_share": BATCH_SHARE,
        "batch_size": BATCH_SIZE,
        "pool_size": POOL_SIZE,
        "hitlist_budget": HITLIST_BUDGET,
    }
    return Report(checks, end_to_end, layers, details, scale)
