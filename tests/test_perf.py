"""Tests for the performance engine: parallel determinism, cache, timing."""

from __future__ import annotations

import json
import os
import pickle

import pytest

from repro.perf.cache import (
    CACHE_DIR_ENV,
    CACHE_ENV,
    ScenarioCache,
    code_fingerprint,
    get_scenario_cache,
    resolve_cache_flag,
)
from repro.cdn.collector import collect_associations
from repro.netsim.sim import run_isp_simulations
from repro.perf.parallel import (
    WORKERS_ENV,
    effective_workers,
    map_streamed,
    resolve_workers,
)
from repro.perf.timing import read_baseline, write_baseline
from repro.perf.verify import (
    assert_atlas_scenarios_equal,
    assert_cdn_scenarios_equal,
    atlas_scenario_diffs,
)
from repro.workloads import build_atlas_scenario, build_cdn_scenario

#: Small enough for a sub-second serial build, big enough to exercise
#: every pipeline stage (sanitization, both population kinds, merging).
ATLAS_SCALE = dict(probes_per_as=4, years=0.3)
CDN_SCALE = dict(
    days=12,
    fixed_subscribers_per_registry=24,
    mobile_devices_per_registry=30,
    featured_subscribers=24,
)


# ---------------------------------------------------------------------------
# Parallel determinism
# ---------------------------------------------------------------------------


def test_atlas_parallel_matches_serial():
    serial = build_atlas_scenario(seed=11, workers=1, cache=False, **ATLAS_SCALE)
    parallel = build_atlas_scenario(seed=11, workers=2, cache=False, **ATLAS_SCALE)
    assert_atlas_scenarios_equal(serial, parallel)


def test_cdn_parallel_matches_serial():
    serial = build_cdn_scenario(seed=11, workers=1, cache=False, **CDN_SCALE)
    parallel = build_cdn_scenario(seed=11, workers=2, cache=False, **CDN_SCALE)
    assert_cdn_scenarios_equal(serial, parallel)


def test_different_seeds_detected_by_verifier():
    a = build_atlas_scenario(seed=1, workers=1, cache=False, **ATLAS_SCALE)
    b = build_atlas_scenario(seed=2, workers=1, cache=False, **ATLAS_SCALE)
    assert atlas_scenario_diffs(a, b)


def test_run_isp_simulations_grafts_plans_back():
    """Post-build plan state (worker-side mutations) must reach the parent."""
    serial = build_atlas_scenario(seed=5, workers=1, cache=False, **ATLAS_SCALE)
    parallel = build_atlas_scenario(seed=5, workers=3, cache=False, **ATLAS_SCALE)
    for name, isp in serial.isps.items():
        other = parallel.isps[name]
        assert isp.v4_plan.in_use_count == other.v4_plan.in_use_count
        if isp.v6_plan is not None:
            assert isp.v6_plan.in_use_count == other.v6_plan.in_use_count


class _Unpicklable:
    def __reduce__(self):
        raise TypeError("nope")


def _times(shared, value):
    return shared * value


def test_unpicklable_work_raises(monkeypatch):
    """A pooled call whose work cannot be pickled fails; it never runs serially."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)

    class FakeIsp:
        config = _Unpicklable()
        v4_plan = None
        v6_plan = None
        asn = 1

    with pytest.raises(TypeError, match="nope"):
        run_isp_simulations([(FakeIsp(), 3), (FakeIsp(), 3)], 24.0, seed=9, workers=2)
    with pytest.raises(TypeError, match="nope"):
        list(map_streamed(_square, [1, _Unpicklable()], workers=2))
    with pytest.raises(TypeError, match="nope"):
        list(map_streamed(_times, [1, 2], workers=2, shared=_Unpicklable()))
    with pytest.raises(AttributeError, match="pickle"):
        list(map_streamed(lambda value: value, [1, 2], workers=2))


def test_resolve_workers(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert resolve_workers() == 1
    assert resolve_workers(3) == 3
    monkeypatch.setenv(WORKERS_ENV, "5")
    assert resolve_workers() == 5
    assert resolve_workers(2) == 2  # explicit beats the environment
    monkeypatch.setenv(WORKERS_ENV, "auto")
    assert resolve_workers() == max(1, os.cpu_count() or 1)
    with pytest.raises(ValueError):
        resolve_workers(0)


def test_effective_workers_clamps_to_cores(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert effective_workers(4, 10) == 4  # request honoured
    assert effective_workers(16, 3) == 3  # never more workers than units
    assert effective_workers(4, 0) == 1  # nothing to do
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert effective_workers(4, 10) == 2  # clamped to the hardware
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert effective_workers(4, 10) == 1  # single core: serial path
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert effective_workers(4, 10) == 1  # unknown core count: stay serial


class _BoomPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("process pool must not start")


def _forbid_pool(monkeypatch):
    import repro.perf.parallel as parallel_mod

    monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", _BoomPool)


def _tiny_isps(count):
    from repro.bgp.registry import Registry
    from repro.bgp.table import RoutingTable
    from repro.netsim.isp import Isp
    from repro.netsim.profiles import default_profiles

    registry, table = Registry(), RoutingTable()
    return [Isp(config, registry, table) for config in default_profiles()[:count]]


class _EmptyPopulation:
    def triples(self):
        return []


def test_single_core_simulations_take_serial_path(monkeypatch):
    """Regression: a 1-core host must never pay process-pool overhead
    (the shipped baseline measured parallel at 0.48x serial there)."""
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    _forbid_pool(monkeypatch)
    isps = _tiny_isps(2)
    results = run_isp_simulations([(isp, 2) for isp in isps], 24.0, seed=1, workers=4)
    assert len(results) == 2 and all(len(timelines) == 2 for timelines in results)


def test_single_core_collection_takes_serial_path(monkeypatch):
    from repro.bgp.registry import Registry
    from repro.bgp.table import RoutingTable

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    _forbid_pool(monkeypatch)
    populations = [_EmptyPopulation(), _EmptyPopulation()]
    result = collect_associations(populations, RoutingTable(), Registry(), workers=4)
    assert result.total_collected == 0
    assert result.classifier is not None


def test_one_unit_never_starts_a_pool(monkeypatch, tmp_path):
    """A sized unit list shorter than the worker count clamps the pool
    away: one unit always runs the plain serial loop, on any host."""
    from repro.bgp.registry import Registry
    from repro.bgp.table import RoutingTable
    from repro.core.analysis_np import ProbeColumns
    from repro.core.fused import run_fused_analysis
    from repro.store import analyze_store, build_store_from_triples
    from repro.store.segments import ShardSource, compact_sources

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    _forbid_pool(monkeypatch)
    assert list(map_streamed(_square, [3], workers=4)) == [9]
    (isp,) = _tiny_isps(1)
    assert len(run_isp_simulations([(isp, 2)], 24.0, seed=1, workers=4)[0]) == 2
    dataset = collect_associations(
        [_EmptyPopulation()], RoutingTable(), Registry(), workers=4
    )
    assert dataset.total_collected == 0

    triples = [(day, (day % 5) << 8, (day + 1) << 64) for day in range(40)]
    store = build_store_from_triples(triples, tmp_path / "store", shards=1)
    assert analyze_store(store, workers=4).total_triples == len(triples)
    source = ShardSource(str(store.directory), 1, tuple(store.shard_rows))
    compacted = compact_sources([source], tmp_path / "compacted", 1, workers=4)
    assert compacted.digest() == store.digest()

    scenario = build_atlas_scenario(seed=3, workers=1, cache=False, **ATLAS_SCALE)
    name, isp = next(iter(scenario.isps.items()))
    columns = ProbeColumns(scenario.probes_in(isp.asn))
    artifacts = run_fused_analysis(
        columns, [(name, isp.asn, isp.config.country)], scenario.table, workers=4
    )
    assert set(artifacts["table1"]) == {name}


def test_collect_associations_serial_and_parallel_agree():
    scenario = build_cdn_scenario(seed=3, workers=1, cache=False, **CDN_SCALE)
    # Rebuild in parallel; collect_associations is exercised through the
    # builder, so compare the resulting datasets triple-for-triple.
    redo = build_cdn_scenario(seed=3, workers=2, cache=False, **CDN_SCALE)
    assert scenario.dataset.triples_by_asn == redo.dataset.triples_by_asn
    assert scenario.dataset.total_collected == redo.dataset.total_collected
    assert redo.dataset.classifier is not None  # reattached post-merge


def test_collect_associations_empty_populations_serial_path():
    from repro.bgp.registry import Registry
    from repro.bgp.table import RoutingTable

    registry = Registry()
    table = RoutingTable()
    dataset = collect_associations([], table, registry, workers=4)
    assert dataset.total_collected == 0


# ---------------------------------------------------------------------------
# Streamed fan-out and scratch hygiene
# ---------------------------------------------------------------------------


def _square(value):
    return value * value


def test_map_streamed_serial_preserves_order():
    assert list(map_streamed(_square, range(7), workers=1)) == [
        v * v for v in range(7)
    ]


def test_map_streamed_pool_preserves_order(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert list(map_streamed(_square, range(23), workers=2)) == [
        v * v for v in range(23)
    ]


def test_map_streamed_consumes_unbounded_streams_lazily(monkeypatch):
    # A generator longer than any in-flight window must not be drained
    # eagerly: stop consuming results and the stream stops advancing.
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    pulled = []

    def stream():
        for value in range(10_000):
            pulled.append(value)
            yield value

    results = map_streamed(_square, stream(), workers=2, max_inflight=4)
    head = [next(results) for _ in range(8)]
    assert head == [v * v for v in range(8)]
    assert len(pulled) < 64  # bounded look-ahead, not full materialization
    results.close()


def test_map_streamed_rejects_bad_inflight():
    with pytest.raises(ValueError):
        list(map_streamed(_square, range(3), workers=1, max_inflight=0))


def _build_scratch_store(tmp_path):
    from repro.store import build_store_from_triples

    store = build_store_from_triples(
        [(day, (day % 5) << 8, (day + 1) << 64) for day in range(40)],
        tmp_path / "store",
        shards=4,
    )
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    return store, scratch


def _boom_task(store, index, scratch):
    from pathlib import Path

    if index >= 2:
        raise RuntimeError("shard task failed")
    (Path(scratch) / f"run-{index:04d}.bin").write_bytes(b"x" * 16)
    return index


def test_map_store_shards_discards_scratch_on_serial_failure(tmp_path, monkeypatch):
    """analyze_store's shard pass: a failing task leaves no partial runs."""
    from repro.store import kernels

    store, scratch = _build_scratch_store(tmp_path)
    monkeypatch.setattr(kernels, "sort_shard_to_scratch", _boom_task)
    with pytest.raises(RuntimeError, match="shard task failed"):
        kernels.analyze_store(store, workers=1, scratch_dir=scratch)
    # The completed shards' partial runs are gone; the directory (owned
    # by the caller) survives for the retry.
    assert scratch.is_dir()
    assert list(scratch.iterdir()) == []


def test_map_store_shards_discards_scratch_on_pool_failure(tmp_path, monkeypatch):
    from repro.store import kernels

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    store, scratch = _build_scratch_store(tmp_path)
    monkeypatch.setattr(kernels, "sort_shard_to_scratch", _boom_task)
    with pytest.raises(RuntimeError, match="shard task failed"):
        kernels.analyze_store(store, workers=2, scratch_dir=scratch)
    assert scratch.is_dir()
    assert list(scratch.iterdir()) == []


# ---------------------------------------------------------------------------
# Scenario cache
# ---------------------------------------------------------------------------


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    return tmp_path


def test_cache_round_trip(cache_dir):
    cold = build_atlas_scenario(seed=21, workers=1, cache=True, **ATLAS_SCALE)
    cache = get_scenario_cache()
    assert cache.directory == cache_dir
    assert cache.stats.puts >= 1
    hits_before = cache.stats.hits
    warm = build_atlas_scenario(seed=21, workers=1, cache=True, **ATLAS_SCALE)
    assert cache.stats.hits == hits_before + 1
    assert_atlas_scenarios_equal(cold, warm)


def test_cache_cdn_round_trip(cache_dir):
    cold = build_cdn_scenario(seed=21, workers=1, cache=True, **CDN_SCALE)
    warm = build_cdn_scenario(seed=21, workers=1, cache=True, **CDN_SCALE)
    assert_cdn_scenarios_equal(cold, warm)


def test_cache_changed_params_miss(cache_dir):
    build_atlas_scenario(seed=21, workers=1, cache=True, **ATLAS_SCALE)
    cache = get_scenario_cache()
    misses_before = cache.stats.misses
    build_atlas_scenario(seed=22, workers=1, cache=True, **ATLAS_SCALE)
    assert cache.stats.misses == misses_before + 1


def test_cache_workers_not_in_key(cache_dir):
    """workers= never changes the output, so it must share a cache entry."""
    build_atlas_scenario(seed=21, workers=1, cache=True, **ATLAS_SCALE)
    cache = get_scenario_cache()
    hits_before = cache.stats.hits
    warm = build_atlas_scenario(seed=21, workers=2, cache=True, **ATLAS_SCALE)
    assert cache.stats.hits == hits_before + 1
    assert warm is not None


def test_cache_code_fingerprint_invalidates(cache_dir, monkeypatch):
    build_atlas_scenario(seed=21, workers=1, cache=True, **ATLAS_SCALE)
    import repro.perf.cache as cache_mod

    monkeypatch.setattr(cache_mod, "code_fingerprint", lambda: "different-code")
    cache = get_scenario_cache()
    misses_before = cache.stats.misses
    build_atlas_scenario(seed=21, workers=1, cache=True, **ATLAS_SCALE)
    assert cache.stats.misses == misses_before + 1


def test_cache_corrupt_entry_is_miss_and_removed(tmp_path):
    cache = ScenarioCache(tmp_path)
    key = cache.key("thing", {"x": 1})
    assert cache.put("thing", key, {"payload": [1, 2, 3]})
    assert cache.get("thing", key) == {"payload": [1, 2, 3]}
    # Corrupt the entry on disk: next get must miss and remove it.
    entry = next(tmp_path.glob("thing-*.pkl"))
    entry.write_bytes(b"not a pickle")
    assert cache.get("thing", key) is None
    assert cache.stats.errors == 1
    assert not entry.exists()


def test_cache_key_mismatch_guard(tmp_path):
    cache = ScenarioCache(tmp_path)
    key = cache.key("thing", {"x": 1})
    path = cache._path_for("thing", key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(pickle.dumps({"key": "some-other-key", "scenario": 42}))
    assert cache.get("thing", key) is None
    assert not path.exists()


def test_cache_clear(tmp_path):
    cache = ScenarioCache(tmp_path)
    for x in range(3):
        cache.put("thing", cache.key("thing", {"x": x}), x)
    assert cache.clear() == 3
    assert cache.get("thing", cache.key("thing", {"x": 0})) is None


def test_cache_key_is_param_order_independent(tmp_path):
    cache = ScenarioCache(tmp_path)
    assert cache.key("b", {"x": 1, "y": 2}) == cache.key("b", {"y": 2, "x": 1})
    assert cache.key("b", {"x": 1}) != cache.key("b", {"x": 2})
    assert cache.key("b", {"x": 1}) != cache.key("c", {"x": 1})


def test_resolve_cache_flag(monkeypatch):
    monkeypatch.delenv(CACHE_ENV, raising=False)
    assert resolve_cache_flag() is False
    assert resolve_cache_flag(True) is True
    assert resolve_cache_flag(False) is False
    monkeypatch.setenv(CACHE_ENV, "1")
    assert resolve_cache_flag() is True
    assert resolve_cache_flag(False) is False  # explicit beats the environment
    monkeypatch.setenv(CACHE_ENV, "off")
    assert resolve_cache_flag() is False


def test_code_fingerprint_stable():
    assert code_fingerprint() == code_fingerprint()
    assert len(code_fingerprint()) == 64


# ---------------------------------------------------------------------------
# RSS probes and the baseline artifact
# ---------------------------------------------------------------------------


def test_current_rss_bytes_without_proc(monkeypatch):
    """Without /proc the getrusage fallback still bounds the RSS."""
    import builtins

    from repro.perf import timing

    real_open = builtins.open

    def proc_denied(path, *args, **kwargs):
        if isinstance(path, str) and path.startswith("/proc/"):
            raise OSError("no /proc on this platform")
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", proc_denied)
    rss = timing.current_rss_bytes()
    assert rss is None or rss > 0


def test_rss_sampler_handles_unreadable_rss(monkeypatch):
    from repro.perf import timing

    monkeypatch.setattr(timing, "current_rss_bytes", lambda: None)
    with timing.RssSampler(interval=0.001) as sampler:
        pass
    assert sampler.peak_bytes is None


def test_rss_sampler_tracks_peak(monkeypatch):
    from repro.perf import timing

    samples = iter([100, 300, 200])
    monkeypatch.setattr(
        timing, "current_rss_bytes", lambda: next(samples, 150)
    )
    sampler = timing.RssSampler(interval=60.0)  # no thread samples fire
    with sampler:
        sampler.sample()
        sampler.sample()
    assert sampler.peak_bytes == 300


def test_repo_root_in_checkout_and_installed(tmp_path, monkeypatch):
    from repro.perf import timing

    checkout = timing.repo_root()
    assert (checkout / "pyproject.toml").is_file()

    # Installed layout (site-packages has no pyproject.toml above it):
    # artifacts must land in the CWD, never in a Python prefix.
    fake = tmp_path / "site-packages" / "repro" / "perf" / "timing.py"
    fake.parent.mkdir(parents=True)
    fake.touch()
    monkeypatch.setattr(timing, "__file__", str(fake))
    monkeypatch.chdir(tmp_path)
    assert timing.repo_root() == tmp_path


def test_write_baseline_merges_sections(tmp_path):
    path = tmp_path / "BENCH_baseline.json"
    write_baseline("alpha", {"a": 1}, path=path)
    doc = write_baseline("beta", {"b": 2}, path=path)
    assert doc["alpha"] == {"a": 1}
    assert doc["beta"] == {"b": 2}
    assert "updated" in doc
    on_disk = json.loads(path.read_text())
    assert on_disk["alpha"] == {"a": 1} and on_disk["beta"] == {"b": 2}


def test_read_baseline_tolerates_garbage(tmp_path):
    path = tmp_path / "BENCH_baseline.json"
    assert read_baseline(path) == {}
    path.write_text("{corrupt")
    assert read_baseline(path) == {}
    path.write_text("[1, 2]")  # valid JSON, wrong shape
    assert read_baseline(path) == {}


# ---------------------------------------------------------------------------
# Pickling of the IP value types (what makes the fan-out possible)
# ---------------------------------------------------------------------------


def test_ip_types_pickle_round_trip():
    from repro.ip.addr import IPv4Address, IPv6Address
    from repro.ip.prefix import IPv4Prefix, IPv6Prefix

    for value in (
        IPv4Address(0xC0A80101),
        IPv6Address(0x20010DB8 << 96),
        IPv4Prefix.parse("192.0.2.0/24"),
        IPv6Prefix.parse("2001:db8::/32"),
    ):
        clone = pickle.loads(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
        assert clone == value
        assert type(clone) is type(value)
