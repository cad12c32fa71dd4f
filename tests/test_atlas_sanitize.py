"""Tests for the Appendix A.1 sanitization pipeline.

The fused cascade over run columns must equal the per-run ``py``
reference, report field for report field and survivor for survivor, on
crafted probes for every case of the cascade and on generated ones.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atlas.echo import TEST_ADDRESS, EchoRun, RunSeries
from repro.atlas.platform import AtlasPlatform, ProbeData, ProbeSpec
from repro.atlas.probe import Probe
from repro.atlas.sanitize import MIN_SPAN_HOURS, REVERSION_THRESHOLD, sanitize
from repro.bgp.registry import Registry
from repro.bgp.table import RoutingTable
from repro.ip.addr import IPv4Address, IPv6Address
from repro.ip.prefix import parse_prefix
from repro.perf.verify import sanitize_diffs
from tests.test_atlas_platform import DAY, build_network


@pytest.fixture(scope="module")
def environment():
    registry, table = Registry(), RoutingTable()
    isp_a, timelines_a, _ = build_network(asn=64500, registry=registry, table=table,
                                          num_subscribers=10, end_hour=180 * DAY)
    isp_b, timelines_b, _ = build_network(asn=64501, registry=registry, table=table,
                                          num_subscribers=10, end_hour=180 * DAY, seed=5)
    platform = AtlasPlatform(
        {isp_a.asn: (isp_a, timelines_a), isp_b.asn: (isp_b, timelines_b)},
        end_hour=180 * DAY,
        seed=11,
    )
    return platform, isp_a, isp_b, table


def data_for(platform, **kwargs):
    return platform.probe_data(ProbeSpec(**kwargs))


class TestSanitize:
    def test_clean_probe_survives(self, environment):
        platform, isp_a, _, table = environment
        data = data_for(platform, probe_id=1, asn=isp_a.asn, subscriber_id=0)
        kept, report = sanitize([data], table)
        assert len(kept) == 1
        assert kept[0].probe_id == "1"
        assert kept[0].asn == isp_a.asn
        assert kept[0].dual_stack
        assert report.kept_probes == 1

    def test_bad_tag_dropped(self, environment):
        platform, isp_a, _, table = environment
        data = data_for(platform, probe_id=2, asn=isp_a.asn, subscriber_id=0,
                        tags=("home", "datacentre"))
        kept, report = sanitize([data], table)
        assert kept == []
        assert report.dropped_bad_tag == 1

    def test_atypical_nat_dropped(self, environment):
        platform, isp_a, _, table = environment
        v4_public = data_for(platform, probe_id=3, asn=isp_a.asn, subscriber_id=1,
                             anomaly="public_v4_src")
        v6_mismatch = data_for(platform, probe_id=4, asn=isp_a.asn, subscriber_id=2,
                               anomaly="v6_src_mismatch")
        kept, report = sanitize([v4_public, v6_mismatch], table)
        assert kept == []
        assert report.dropped_atypical_nat == 2

    def test_multihomed_dropped(self, environment):
        platform, isp_a, isp_b, table = environment
        data = data_for(platform, probe_id=5, asn=isp_a.asn, subscriber_id=3,
                        anomaly="multihomed", secondary=(isp_b.asn, 3))
        kept, report = sanitize([data], table)
        assert kept == []
        assert report.dropped_multihomed == 1

    def test_as_move_split_into_virtual_probes(self, environment):
        platform, isp_a, isp_b, table = environment
        data = data_for(platform, probe_id=6, asn=isp_a.asn, subscriber_id=4,
                        anomaly="as_move", secondary=(isp_b.asn, 4))
        kept, report = sanitize([data], table)
        assert len(kept) == 2
        assert {probe.asn for probe in kept} == {isp_a.asn, isp_b.asn}
        assert {probe.probe_id for probe in kept} == {"6#0", "6#1"}
        assert report.virtual_probes_created == 2

    def test_test_address_runs_removed(self, environment):
        platform, isp_a, _, table = environment
        data = data_for(platform, probe_id=7, asn=isp_a.asn, subscriber_id=5,
                        anomaly="test_prefix")
        kept, report = sanitize([data], table)
        assert report.test_address_runs_removed >= 1
        assert len(kept) == 1
        assert all(str(run.value) != "193.0.0.78" for run in kept[0].v4_runs)

    def test_short_duration_dropped(self, environment):
        platform, isp_a, _, table = environment
        data = data_for(platform, probe_id=8, asn=isp_a.asn, subscriber_id=6,
                        join_hour=0, leave_hour=20 * DAY)
        kept, report = sanitize([data], table)
        assert kept == []
        assert report.dropped_short == 1

    def test_unrouted_runs_removed(self, environment):
        platform, isp_a, _, _ = environment
        data = data_for(platform, probe_id=9, asn=isp_a.asn, subscriber_id=7)
        empty_table = RoutingTable()
        kept, report = sanitize([data], empty_table)
        assert kept == []
        assert report.unrouted_runs_removed > 0

    def test_report_totals(self, environment):
        platform, isp_a, isp_b, table = environment
        batch = [
            data_for(platform, probe_id=20, asn=isp_a.asn, subscriber_id=0),
            data_for(platform, probe_id=21, asn=isp_a.asn, subscriber_id=1,
                     tags=("system-anchor",)),
            data_for(platform, probe_id=22, asn=isp_b.asn, subscriber_id=2),
        ]
        kept, report = sanitize(batch, table)
        assert report.input_probes == 3
        assert report.kept_probes == len(kept) == 2
        assert report.dropped_bad_tag == 1

    def test_non_dual_stack_classification(self):
        # A probe on a subscriber line without IPv6 is kept but not dual-stack.
        from repro.netsim.isp import Isp, IspConfig, V4AddressingConfig, V6AddressingConfig
        from repro.netsim.policy import ChangePolicy
        from repro.netsim.sim import IspSimulation
        from repro.bgp.registry import RIR

        registry, table = Registry(), RoutingTable()
        config = IspConfig(
            name="NdsNet",
            asn=64510,
            country="XX",
            rir=RIR.RIPE,
            dual_stack_fraction=0.0,
            v4=V4AddressingConfig(
                policy_nds=ChangePolicy.periodic(5 * DAY),
                policy_ds=ChangePolicy.periodic(5 * DAY),
                num_blocks=2,
                block_plen=18,
            ),
            v6=V6AddressingConfig(policy=ChangePolicy.exponential(40 * DAY)),
        )
        isp = Isp(config, registry, table)
        timelines = IspSimulation(isp, 3, 120 * DAY, seed=0).run()
        platform = AtlasPlatform({isp.asn: (isp, timelines)}, end_hour=120 * DAY, seed=1)
        data = data_for(platform, probe_id=30, asn=isp.asn, subscriber_id=0)
        kept, _ = sanitize([data], table)
        assert len(kept) == 1 and not kept[0].dual_stack
        assert kept[0].v6_runs == []


# ---------------------------------------------------------------------------
# Fused cascade vs the per-run reference
# ---------------------------------------------------------------------------

def _table(extra=()):
    table = RoutingTable()
    for text, asn in (
        ("10.0.0.0/16", 100),
        ("10.1.0.0/16", 200),
        ("10.1.128.0/17", 300),  # nested inside AS200's /16
        ("193.0.0.0/16", 400),  # the test address is routed: it is still stripped
        ("2001:db8::/32", 100),
        ("2001:db9::/32", 200),
        ("2001:db9:8000::/33", 300),
        *extra,
    ):
        table.announce(parse_prefix(text), asn)
    return table


TABLE = _table()

#: Run values by family: two addresses per AS 100/200/300, one unrouted,
#: and (IPv4) the RIPE NCC test address.
V4 = {
    "a": "10.0.0.1", "A": "10.0.9.9", "b": "10.1.0.1", "B": "10.1.7.7",
    "c": "10.1.200.1", "C": "10.1.201.1", "u": "11.0.0.1", "t": str(TEST_ADDRESS),
}
V6 = {
    "a": "2001:db8::1", "A": "2001:db8:0:1::1", "b": "2001:db9::1", "B": "2001:db9:0:1::1",
    "c": "2001:db9:8000::1", "C": "2001:db9:8000:1::1", "u": "2002::1",
}


def _runs(probe_id, family, spec):
    """EchoRuns from ``(token, first, last)`` triples, fully observed."""
    values = V4 if family == 4 else V6
    make = IPv4Address if family == 4 else IPv6Address
    return [
        EchoRun(probe_id, family, make.parse(values[token]), first, last, last - first + 1)
        for token, first, last in spec
    ]


def _probe(probe_id, v4=(), v6=(), columns=False, **flags):
    v4_runs = _runs(probe_id, 4, v4)
    v6_runs = _runs(probe_id, 6, v6)
    if columns:
        v4_runs = RunSeries.from_runs(v4_runs, probe_id, 4)
        v6_runs = RunSeries.from_runs(v6_runs, probe_id, 6)
    return ProbeData(
        probe=Probe(probe_id=probe_id, asn=100, tags=flags.pop("tags", ())),
        spec=ProbeSpec(probe_id=probe_id, asn=100, subscriber_id=0),
        v4_runs=v4_runs,
        v6_runs=v6_runs,
        **flags,
    )


LONG = MIN_SPAN_HOURS + 100


def _crafted(columns):
    """One probe per cascade case, in a fixed order."""
    def seq(tokens, start=0, length=LONG // 2):
        return [(t, start + i * length, start + (i + 1) * length - 1) for i, t in enumerate(tokens)]

    return [
        _probe(1, seq("aA"), seq("aA"), columns),  # clean
        _probe(2, seq("taA"), seq("aA"), columns),  # test-address run
        _probe(3, seq("aAa"), seq("uaA"), columns),  # unrouted v6 run; one reversion
        _probe(4, seq("aAaA"), seq("aA"), columns),  # exactly REVERSION_THRESHOLD reversions
        _probe(5, seq("abA"), seq("aA"), columns),  # v4-only AS alternation
        _probe(6, seq("aA"), seq("acA"), columns),  # v6-only AS alternation, no reversion
        _probe(7, seq("ab", length=1000), [("a", 1500, 2000)], columns),  # cross-family
        _probe(8, seq("aAbB", length=LONG), seq("aAbB", length=LONG), columns),  # AS move
        _probe(9, seq("aAAb", length=LONG)[:3] + [("b", 3 * LONG, 3 * LONG + 10)], (),
               columns),  # AS move whose second piece is short
        _probe(10, (), seq("aA", length=LONG), columns),  # empty IPv4
        _probe(11, seq("aA", length=LONG), (), columns),  # empty IPv6
        _probe(12, (), (), columns),  # both empty
        _probe(13, seq("a", length=100), seq("a", length=100), columns),  # short
        _probe(14, seq("aA"), seq("aA"), columns, tags=("core",)),
        _probe(15, seq("aA"), seq("aA"), columns, v4_src_public=True),
        # Spans of exactly MIN_SPAN_HOURS (kept, dual-stack) and one hour less.
        _probe(16, [("a", 5, 4 + MIN_SPAN_HOURS)], [("a", 9, 8 + MIN_SPAN_HOURS)], columns),
        _probe(17, [("a", 5, 3 + MIN_SPAN_HOURS)], [("a", 9, 7 + MIN_SPAN_HOURS)], columns),
    ]


class TestFusedSanitize:
    @pytest.mark.parametrize("columns", [False, True], ids=["lists", "series"])
    def test_crafted_cases_match_reference(self, columns):
        probes = _crafted(columns)
        assert sanitize_diffs(probes, TABLE) == []
        kept, report = sanitize(probes, TABLE, engine="fused")
        ids = [probe.probe_id for probe in kept]
        assert ids == ["1", "2", "3", "8#0", "8#1", "9#0", "10", "11", "16"]
        assert report.test_address_runs_removed == 1
        assert report.unrouted_runs_removed == 1
        assert report.dropped_multihomed == 4  # probes 4, 5, 6 and 7
        assert report.virtual_probes_created == 4
        assert report.dropped_short == 3  # 9#1, 13 and 17
        assert (report.dropped_bad_tag, report.dropped_atypical_nat) == (1, 1)
        assert all(isinstance(p.v4_runs, RunSeries) for p in kept)
        assert [p.dual_stack for p in kept] == [True] * 5 + [False] * 3 + [True]

    def test_reversion_threshold_is_inclusive(self):
        probes = _crafted(False)
        one_below, report = sanitize(
            probes, TABLE, reversion_threshold=REVERSION_THRESHOLD + 1, engine="fused"
        )
        assert "4" in {probe.probe_id for probe in one_below}
        assert report == sanitize(
            probes, TABLE, reversion_threshold=REVERSION_THRESHOLD + 1, engine="py"
        )[1]

    def test_sanitize_diffs_names_the_difference(self, monkeypatch):
        # ``repro.atlas.sanitize`` the attribute is the function; the
        # module is the one it was defined in.
        module = sys.modules[sanitize.__module__]
        cascade = module._sanitize_columns

        def skewed(*args):
            survivors = cascade(*args)
            args[-1].unrouted_runs_removed += 1
            survivors[0].v4_runs = survivors[0].v4_runs[1:]
            survivors[1].asn = 999
            runs = survivors[2].v6_runs
            survivors[2].v6_runs = RunSeries(
                runs.probe_id, 6, runs.value_hi, runs.value_lo, runs.first, runs.last,
                runs.observed, runs.max_gap + 1,
            )
            return survivors

        monkeypatch.setattr(module, "_sanitize_columns", skewed)
        assert sanitize_diffs(_crafted(True), TABLE) == [
            "report.unrouted_runs_removed: fused 2 != py 1",
            "survivor 0 (probe 1): v4_runs: fused 1 runs != py 2",
            "survivor 1 (probe 2): asn: fused 999 != py 100",
            "survivor 2 (probe 3): v6_runs.max_gap differs",
        ]

    def test_long_v6_route_fails_loud(self):
        table = _table(extra=[("2001:db8:0:1::/80", 500)])
        probes = _crafted(True)
        with pytest.raises(ValueError, match="2001:db8:0:1::/80"):
            sanitize(probes, table, engine="fused")
        # The reference resolves it through the trie: /80 covers run 'A'.
        assert sanitize(probes, table, engine="py")[1].dropped_multihomed > 0

    def test_out_of_order_runs_fail_loud(self):
        probe = _probe(1, [("a", 100, 200), ("A", 0, 50)])
        with pytest.raises(ValueError, match="not in time order"):
            sanitize([probe], TABLE, engine="fused")

    def test_foreign_run_fails_loud(self):
        probe = _probe(1, [("a", 0, 50)])
        probe.v4_runs = _runs(2, 4, [("a", 0, 50)])
        with pytest.raises(ValueError, match="not of probe 1"):
            sanitize([probe], TABLE, engine="fused")


_TOKENS4 = sorted(V4)
_TOKENS6 = sorted(V6)


def _series_strategy(tokens):
    return st.lists(
        st.tuples(
            st.sampled_from(tokens),
            st.integers(min_value=0, max_value=60),  # gap before the run
            st.integers(min_value=1, max_value=500),  # duration
            st.integers(min_value=1, max_value=100),  # observed percent
            st.integers(min_value=0, max_value=30),  # max_gap
        ),
        max_size=9,
    )


def _generated_runs(probe_id, family, rows, start):
    values = V4 if family == 4 else V6
    make = IPv4Address if family == 4 else IPv6Address
    runs, cursor = [], start
    for token, gap, duration, percent, max_gap in rows:
        first = cursor + gap
        last = first + duration - 1
        observed = max(1, duration * percent // 100)
        runs.append(EchoRun(probe_id, family, make.parse(values[token]), first, last,
                            observed, max_gap))
        cursor = last + 1
    return runs


_probe_strategy = st.tuples(
    _series_strategy(_TOKENS4),
    _series_strategy(_TOKENS6),
    # IPv6 timing: the IPv4 gaps and durations (so AS changes of both
    # families fall on the same hour, as an ISP move makes them), or
    # its own runs from this start offset.
    st.one_of(st.just("aligned"), st.integers(min_value=0, max_value=300)),
    st.booleans(),  # runs as RunSeries
    st.sampled_from(["ok", "ok", "ok", "tag", "nat4", "nat6"]),
)

#: Without a route for it the test address is also unrouted; it must
#: still count as a test-address run only.
TABLE_UNROUTED_TEST = RoutingTable(
    [route for route in TABLE.routes() if str(route.prefix) != "193.0.0.0/16"]
)


@given(
    st.lists(_probe_strategy, max_size=7),
    st.sampled_from([TABLE, TABLE_UNROUTED_TEST]),
    st.sampled_from([REVERSION_THRESHOLD, 1, 3]),
    st.sampled_from([MIN_SPAN_HOURS, 300]),
    st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_generated_probes_sanitize_like_reference(rows, table, threshold, min_span, crafted):
    """Generated probes, after one crafted probe per cascade case
    (:func:`_crafted`) when ``crafted`` is drawn."""
    probes = _crafted(columns=len(rows) % 2 == 1) if crafted else []
    for probe_id, (v4, v6, offset, columns, kind) in enumerate(rows, start=100):
        v4_runs = _generated_runs(probe_id, 4, v4, 0)
        if offset == "aligned":
            v6 = [(token6, *timing) for (_, *timing), (token6, *_) in zip(v4, v6)]
            offset = 0
        v6_runs = _generated_runs(probe_id, 6, v6, offset)
        if columns:
            v4_runs = RunSeries.from_runs(v4_runs, probe_id, 4)
            v6_runs = RunSeries.from_runs(v6_runs, probe_id, 6)
        probes.append(ProbeData(
            probe=Probe(probe_id=probe_id, asn=100,
                        tags=("datacentre",) if kind == "tag" else ()),
            spec=ProbeSpec(probe_id=probe_id, asn=100, subscriber_id=0),
            v4_runs=v4_runs,
            v6_runs=v6_runs,
            v4_src_public=kind == "nat4",
            v6_src_mismatch=kind == "nat6",
        ))
    fused = sanitize(probes, table, min_span, threshold, engine="fused")
    reference = sanitize(probes, table, min_span, threshold, engine="py")
    assert fused == reference
    if (threshold, min_span) == (REVERSION_THRESHOLD, MIN_SPAN_HOURS):
        assert sanitize_diffs(probes, table) == []
