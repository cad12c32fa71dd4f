"""Collection fast path and scenario column memoization.

The Atlas platform can pack a probe's interval timeline straight into
run arrays (the ``fused`` engine's collection path, whose ``ProbeData``
holds :class:`~repro.atlas.echo.RunSeries`) instead of materializing
per-hour echo records; both paths must produce equal ``ProbeData`` and
bit-identical column packs.  The scenario object memoizes per-AS
``ProbeColumns`` packs, so every table/figure reuses one pack — the
packs do not depend on the engine, and a replaced probe list must never
be served stale columns.
"""

from __future__ import annotations

import dataclasses

import pytest

np = pytest.importorskip("numpy")

from repro.core.engine import ENGINE_ENV  # noqa: E402
from repro.workloads import build_atlas_scenario  # noqa: E402


@pytest.fixture(scope="module")
def scenario():
    return build_atlas_scenario(probes_per_as=5, years=0.5, seed=42)


def _specs(scenario):
    return [probe.spec for probe in scenario.raw_probes]


def test_collection_fast_path_matches_reference(scenario):
    platform = scenario.platform
    anomalies = set()
    for spec in _specs(scenario):
        anomalies.add(spec.anomaly)
        fast = platform.probe_data(spec, engine="fused")
        reference = platform.probe_data(spec, engine="py")
        assert fast == reference, f"collection diverges for {spec}"
    # The scenario's anomaly cycle must actually be exercised.
    assert "none" in anomalies and len(anomalies) >= 3


def test_collection_fast_path_privacy_iid(scenario):
    platform = scenario.platform
    for spec in _specs(scenario)[:6]:
        private = dataclasses.replace(spec, iid_mode="privacy")
        assert platform.probe_data(private, engine="fused") == platform.probe_data(
            private, engine="py"
        )


def test_run_columns_matches_columns_from_runs(scenario):
    from repro.atlas.echo import RunSeries
    from repro.core.analysis_np import columns_from_runs
    from repro.ip.addr import IPv4Address, IPv6Address

    platform = scenario.platform
    specs = _specs(scenario)
    fused = [platform.probe_data(spec, engine="fused") for spec in specs]
    reference = [platform.probe_data(spec, engine="py") for spec in specs]
    for family, value_type in ((4, IPv4Address), (6, IPv6Address)):
        def runs(probe):
            return probe.v4_runs if family == 4 else probe.v6_runs

        assert all(isinstance(runs(probe), RunSeries) for probe in fused)
        assert all(isinstance(runs(probe), list) for probe in reference)
        direct = columns_from_runs([runs(p) for p in fused], value_type=value_type)
        packed = columns_from_runs([runs(p) for p in reference], value_type=value_type)
        for field in (
            "offsets", "value_hi", "value_lo", "first", "last", "observed", "max_gap"
        ):
            assert np.array_equal(
                getattr(direct, field), getattr(packed, field)
            ), f"column {field} diverges for family {family}"
            assert getattr(direct, field).dtype == getattr(packed, field).dtype


def test_engine_flip_never_serves_stale_columns(scenario, monkeypatch):
    scenario.invalidate_analysis_columns()
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    columns = scenario.analysis_columns()
    assert columns is not None
    assert scenario.analysis_columns() is columns  # memoized
    monkeypatch.setenv(ENGINE_ENV, "py")
    assert scenario.analysis_columns() is columns  # packs are engine-independent
    monkeypatch.setenv(ENGINE_ENV, "fused")
    assert scenario.analysis_columns() is columns

    # Replacing the probe list invalidates by identity, not just by id().
    original = scenario.probes
    scenario.probes = list(scenario.probes)
    try:
        fresh = scenario.analysis_columns()
        assert fresh is not None and fresh is not columns
    finally:
        scenario.probes = original
    scenario.invalidate_analysis_columns()
    assert scenario.analysis_columns() is not columns


def test_per_asn_columns_cover_asn_probes(scenario):
    scenario.invalidate_analysis_columns()
    for name, isp in scenario.isps.items():
        columns = scenario.analysis_columns(isp.asn)
        assert columns.n_probes == len(scenario.probes_in(isp.asn))
    scenario.invalidate_analysis_columns()


SMALL = dict(probes_per_as=4, years=0.3)


def _run_series_only(scenario):
    from repro.atlas.echo import RunSeries

    return all(
        isinstance(runs, RunSeries)
        for probe in list(scenario.raw_probes) + list(scenario.probes)
        for runs in (probe.v4_runs, probe.v6_runs)
    )


def test_fused_and_py_builds_agree(monkeypatch):
    from repro.perf.verify import atlas_scenario_diffs

    monkeypatch.setenv(ENGINE_ENV, "py")
    reference = build_atlas_scenario(seed=7, workers=1, cache=False, **SMALL)
    monkeypatch.setenv(ENGINE_ENV, "fused")
    fused = build_atlas_scenario(seed=7, workers=1, cache=False, **SMALL)
    assert _run_series_only(fused)
    assert all(isinstance(probe.v4_runs, list) for probe in reference.probes)
    assert atlas_scenario_diffs(fused, reference) == []


def test_cached_scenario_round_trips_with_columnar_runs(tmp_path, monkeypatch):
    from repro.perf.cache import CACHE_DIR_ENV
    from repro.perf.verify import atlas_scenario_diffs, fused_engine_diffs

    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    cold = build_atlas_scenario(seed=5, workers=1, cache=True, **SMALL)
    warm = build_atlas_scenario(seed=5, workers=1, cache=True, **SMALL)
    assert warm is not cold and _run_series_only(warm)
    assert atlas_scenario_diffs(cold, warm) == []
    assert fused_engine_diffs(warm, min_probes=2) == []


def test_serve_key_unchanged_after_iterating_runs():
    from repro.serve.registry import scenario_artifact_key

    built = build_atlas_scenario(seed=3, workers=1, cache=False, **SMALL)
    key = scenario_artifact_key(built)
    for probe in built.probes:
        assert sum(1 for _ in probe.v4_runs) == len(probe.v4_runs)
        assert sum(1 for _ in probe.v6_runs) == len(probe.v6_runs)
    assert scenario_artifact_key(built) == key
