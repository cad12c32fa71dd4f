"""Integration tests for the Atlas platform (timelines -> echo data)."""

import pytest

from repro.atlas.echo import TEST_ADDRESS, runs_from_hourly
from repro.atlas.platform import AtlasPlatform, ProbeSpec
from repro.bgp.registry import RIR, Registry
from repro.bgp.table import RoutingTable
from repro.ip.addr import IPv6Address
from repro.netsim.cpe import CpeBehavior
from repro.netsim.isp import Isp, IspConfig, V4AddressingConfig, V6AddressingConfig
from repro.netsim.policy import ChangePolicy
from repro.netsim.sim import IspSimulation

DAY = 24


def build_network(asn=64500, seed=0, num_subscribers=6, end_hour=90 * DAY, registry=None,
                  table=None, v4_period=5 * DAY):
    registry = registry if registry is not None else Registry()
    table = table if table is not None else RoutingTable()
    config = IspConfig(
        name=f"Net{asn}",
        asn=asn,
        country="XX",
        rir=RIR.RIPE,
        dual_stack_fraction=1.0,
        v4=V4AddressingConfig(
            policy_nds=ChangePolicy.periodic(v4_period),
            policy_ds=ChangePolicy.periodic(v4_period),
            num_blocks=2,
            block_plen=18,
        ),
        v6=V6AddressingConfig(
            policy=ChangePolicy.exponential(40 * DAY),
            allocation_plen=32,
            pool_plen=40,
            num_pools=4,
            delegation_plen=56,
            cpe_mix=((CpeBehavior(lan_selection="zero"), 1.0),),
        ),
    )
    isp = Isp(config, registry, table)
    timelines = IspSimulation(isp, num_subscribers, end_hour, seed=seed).run()
    return isp, timelines, table


@pytest.fixture(scope="module")
def platform():
    isp, timelines, table = build_network()
    platform = AtlasPlatform({isp.asn: (isp, timelines)}, end_hour=90 * DAY, seed=7)
    return platform, isp, table


class TestObservationWindows:
    def test_windows_are_sorted_disjoint_and_bounded(self, platform):
        plat, isp, _ = platform
        spec = ProbeSpec(probe_id=1, asn=isp.asn, subscriber_id=0)
        windows = plat.observation_windows(spec)
        assert windows
        for (a_start, a_end), (b_start, b_end) in zip(windows, windows[1:]):
            assert a_start < a_end <= b_start < b_end
        assert windows[0][0] >= 0
        assert windows[-1][1] <= 90 * DAY

    def test_join_leave_respected(self, platform):
        plat, isp, _ = platform
        spec = ProbeSpec(probe_id=2, asn=isp.asn, subscriber_id=0,
                         join_hour=10 * DAY, leave_hour=20 * DAY)
        windows = plat.observation_windows(spec)
        assert windows[0][0] >= 10 * DAY
        assert windows[-1][1] <= 20 * DAY

    def test_deterministic(self, platform):
        plat, isp, _ = platform
        spec = ProbeSpec(probe_id=3, asn=isp.asn, subscriber_id=1)
        assert plat.observation_windows(spec) == plat.observation_windows(spec)


class TestRunsVsHourlyEquivalence:
    def test_runs_equal_runs_from_hourly(self, platform):
        plat, isp, _ = platform
        for probe_id, subscriber_id in [(10, 0), (11, 1), (12, 2)]:
            spec = ProbeSpec(probe_id=probe_id, asn=isp.asn, subscriber_id=subscriber_id)
            data = plat.probe_data(spec)
            records = list(plat.hourly_records(spec))
            v4_records = [r for r in records if r.family == 4]
            v6_records = [r for r in records if r.family == 6]
            assert runs_from_hourly(v4_records) == data.v4_runs
            assert runs_from_hourly(v6_records) == data.v6_runs

    def test_equivalence_with_anomalies(self, platform):
        plat, isp, _ = platform
        for anomaly in ("test_prefix", "public_v4_src", "v6_src_mismatch"):
            spec = ProbeSpec(probe_id=20, asn=isp.asn, subscriber_id=3, anomaly=anomaly)
            data = plat.probe_data(spec)
            records = list(plat.hourly_records(spec))
            assert runs_from_hourly([r for r in records if r.family == 4]) == data.v4_runs
            assert runs_from_hourly([r for r in records if r.family == 6]) == data.v6_runs


class TestEchoContent:
    def test_v4_values_match_subscriber_timeline(self, platform):
        plat, isp, _ = platform
        spec = ProbeSpec(probe_id=30, asn=isp.asn, subscriber_id=0)
        data = plat.probe_data(spec)
        timeline_values = {int(i.value) for i in plat._timeline(isp.asn, 0).v4}
        for run in data.v4_runs:
            assert int(run.value) in timeline_values

    def test_v6_client_has_stable_iid(self, platform):
        plat, isp, _ = platform
        spec = ProbeSpec(probe_id=31, asn=isp.asn, subscriber_id=1)
        data = plat.probe_data(spec)
        iids = {int(run.value) & ((1 << 64) - 1) for run in data.v6_runs}
        assert len(iids) == 1
        # EUI-64 marker bytes present.
        iid = next(iter(iids))
        assert (iid >> 24) & 0xFFFF == 0xFFFE

    def test_v6_prefix_tracks_lan_prefix(self, platform):
        plat, isp, _ = platform
        spec = ProbeSpec(probe_id=32, asn=isp.asn, subscriber_id=2)
        data = plat.probe_data(spec)
        lan_prefixes = {int(i.value.network) for i in plat._timeline(isp.asn, 2).v6_lan}
        for run in data.v6_runs:
            assert isinstance(run.value, IPv6Address)
            assert (int(run.value) >> 64) << 64 in lan_prefixes

    def test_test_prefix_anomaly_emits_test_address(self, platform):
        plat, isp, _ = platform
        spec = ProbeSpec(probe_id=33, asn=isp.asn, subscriber_id=0, anomaly="test_prefix")
        data = plat.probe_data(spec)
        assert data.v4_runs[0].value == TEST_ADDRESS

    def test_src_addr_flags(self, platform):
        plat, isp, _ = platform
        normal = plat.probe_data(ProbeSpec(probe_id=34, asn=isp.asn, subscriber_id=0))
        assert not normal.v4_src_public and not normal.v6_src_mismatch
        nat = plat.probe_data(
            ProbeSpec(probe_id=35, asn=isp.asn, subscriber_id=0, anomaly="public_v4_src")
        )
        assert nat.v4_src_public

    def test_hourly_src_addr_content(self, platform):
        plat, isp, _ = platform
        spec = ProbeSpec(probe_id=36, asn=isp.asn, subscriber_id=0)
        records = list(plat.hourly_records(spec))
        for record in records[:200]:
            if record.family == 4:
                assert str(record.src_addr) == "192.168.1.2"
            else:
                assert record.src_addr == record.client_ip

    def test_multihomed_anomaly_mixes_networks(self):
        registry, table = Registry(), RoutingTable()
        isp_a, timelines_a, _ = build_network(asn=64500, registry=registry, table=table)
        isp_b, timelines_b, _ = build_network(asn=64501, registry=registry, table=table, seed=1)
        plat = AtlasPlatform(
            {isp_a.asn: (isp_a, timelines_a), isp_b.asn: (isp_b, timelines_b)},
            end_hour=90 * DAY,
            seed=3,
        )
        spec = ProbeSpec(
            probe_id=40,
            asn=isp_a.asn,
            subscriber_id=0,
            anomaly="multihomed",
            secondary=(isp_b.asn, 0),
        )
        data = plat.probe_data(spec)
        asns = {table.origin_asn(run.value) for run in data.v4_runs}
        assert asns == {64500, 64501}

    def test_as_move_switches_once(self):
        registry, table = Registry(), RoutingTable()
        isp_a, timelines_a, _ = build_network(asn=64500, registry=registry, table=table)
        isp_b, timelines_b, _ = build_network(asn=64501, registry=registry, table=table, seed=1)
        plat = AtlasPlatform(
            {isp_a.asn: (isp_a, timelines_a), isp_b.asn: (isp_b, timelines_b)},
            end_hour=90 * DAY,
            seed=4,
        )
        spec = ProbeSpec(
            probe_id=41,
            asn=isp_a.asn,
            subscriber_id=1,
            anomaly="as_move",
            secondary=(isp_b.asn, 1),
        )
        data = plat.probe_data(spec)
        sequence = []
        for run in data.v4_runs:
            asn = table.origin_asn(run.value)
            if not sequence or sequence[-1] != asn:
                sequence.append(asn)
        assert sequence == [64500, 64501]

    def test_anomaly_validation(self):
        with pytest.raises(ValueError):
            ProbeSpec(probe_id=1, asn=1, subscriber_id=0, anomaly="nonsense")
        with pytest.raises(ValueError):
            ProbeSpec(probe_id=1, asn=1, subscriber_id=0, anomaly="multihomed")


def test_fused_engine_collects_through_the_columnar_path(platform, monkeypatch):
    """``engine="fused"`` must not silently run pure-Python collection."""
    plat, isp, _ = platform
    spec = ProbeSpec(probe_id=40, asn=isp.asn, subscriber_id=1)
    expected = plat.probe_data(spec, engine="py")

    def refuse(*_args, **_kwargs):
        raise AssertionError("pure-Python collection ran under the fused engine")

    monkeypatch.setattr(AtlasPlatform, "_probe_data_py", refuse)
    assert plat.probe_data(spec, engine="fused") == expected
