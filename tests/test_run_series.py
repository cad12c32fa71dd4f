"""Tests for one probe's runs as columns (``RunSeries``).

A :class:`~repro.atlas.echo.RunSeries` must behave as the
``Sequence[EchoRun]`` it stands in for — same runs, same indexing, same
equality — while handing the column pack its read-only arrays, and its
pickle must not depend on whether the runs were ever built.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atlas.echo import EchoRun, RunSeries
from repro.core.analysis_np import columns_from_runs
from repro.ip.addr import IPv4Address, IPv6Address


def _runs(family, rows, probe_id=7):
    make = IPv4Address if family == 4 else IPv6Address
    runs, cursor = [], 0
    for value, gap, duration, observed, max_gap in rows:
        first = cursor + gap
        last = first + duration - 1
        runs.append(
            EchoRun(probe_id, family, make(value), first, last, min(observed, duration), max_gap)
        )
        cursor = last + 1
    return runs


def _rows(bits):
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=(1 << bits) - 1),
            st.integers(min_value=0, max_value=100),
            st.integers(min_value=1, max_value=200),
            st.integers(min_value=1, max_value=200),
            st.integers(min_value=0, max_value=50),
        ),
        max_size=20,
    )


BITS = {4: 32, 6: 128}
EXAMPLE = _runs(6, [(1 << 100, 0, 5, 5, 0), (3, 2, 4, 2, 1), ((1 << 128) - 1, 0, 9, 9, 0)])


def _fresh(runs=EXAMPLE, family=6):
    """A series that has not built its runs (like one from collection)."""
    series = RunSeries.from_runs(runs, 7, family)
    return pickle.loads(pickle.dumps(series))


class TestRunSeries:
    @given(st.sampled_from([4, 6]).flatmap(lambda f: st.tuples(st.just(f), _rows(BITS[f]))))
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, drawn):
        family, rows = drawn
        runs = _runs(family, rows)
        series = _fresh(runs, family)
        assert len(series) == len(runs)
        assert list(series) == runs
        assert series == runs and runs == series
        packed = columns_from_runs([series])
        reference = columns_from_runs([runs])
        for name in ("offsets", "value_hi", "value_lo", "first", "last", "observed", "max_gap"):
            assert np.array_equal(getattr(packed, name), getattr(reference, name))

    def test_getitem(self):
        series = _fresh()
        assert series[0] == EXAMPLE[0]
        assert series[-1] == EXAMPLE[-1]
        with pytest.raises(IndexError):
            series[len(EXAMPLE)]
        window = series[1:]
        assert isinstance(window, RunSeries)
        assert list(window) == EXAMPLE[1:]
        assert list(series[::-2]) == EXAMPLE[::-2]
        assert list(series[5:]) == []
        assert window.probe_id == 7 and window.family == 6

    def test_runs_are_built_once(self):
        series = _fresh()
        first = series[0]
        assert series[0] is first
        assert next(iter(series)) is first

    def test_equality_is_a_bool(self):
        series = _fresh()
        empty = RunSeries.from_runs([], 7, 6)
        for other in (EXAMPLE, list(EXAMPLE[:2]), _fresh(), series[:1], empty):
            assert type(series == other) is bool
            assert type(other == series) is bool
        assert series == _fresh() and series == EXAMPLE
        assert series != EXAMPLE[:2] and series != series[:1]
        assert RunSeries.from_runs([], 1, 4) == RunSeries.from_runs([], 2, 6) == []
        other_probe = RunSeries.from_runs(_runs(6, [(1, 0, 1, 1, 0)], probe_id=8), 8, 6)
        assert other_probe != RunSeries.from_runs(_runs(6, [(1, 0, 1, 1, 0)]), 7, 6)

    def test_concatenation_gives_a_list(self):
        series = _fresh()
        assert series + series == EXAMPLE + EXAMPLE
        assert [] + series == EXAMPLE and series + [] == EXAMPLE

    @pytest.mark.parametrize(
        "first, last, observed",
        [(0, 4, 6), (5, 4, 1), (0, 0, 0)],
        ids=["observed-above-span", "last-before-first", "nothing-observed"],
    )
    def test_validation_raises_on_impossible_arrays(self, first, last, observed):
        series = RunSeries(7, 4, [0], [1], [first], [last], [observed], [0])
        with pytest.raises(ValueError):
            series[0]
        with pytest.raises(ValueError):
            list(series)

    def test_ipv4_series_refuses_high_bits(self):
        with pytest.raises(ValueError, match="value_hi"):
            list(RunSeries(7, 4, [1], [1], [0], [0], [1], [0]))

    def test_from_runs_refuses_foreign_runs(self):
        with pytest.raises(ValueError, match="not of probe 8"):
            RunSeries.from_runs(EXAMPLE, 8, 6)
        with pytest.raises(ValueError, match="not of probe 7 family 4"):
            RunSeries.from_runs(EXAMPLE, 7, 4)
        series = _fresh()
        assert RunSeries.from_runs(series, 7, 6) is series
        with pytest.raises(ValueError):
            RunSeries.from_runs(series, 7, 4)

    def test_shape_checks(self):
        with pytest.raises(ValueError, match="family"):
            RunSeries(7, 5, [], [], [], [], [], [])
        with pytest.raises(ValueError, match="equal length"):
            RunSeries(7, 4, [0], [1], [0, 1], [0], [1], [0])

    def test_arrays_are_read_only_also_after_unpickling(self):
        for series in (RunSeries.from_runs(EXAMPLE, 7, 6), _fresh(), _fresh()[1:]):
            for name in ("value_hi", "value_lo", "first", "last", "observed", "max_gap"):
                array = getattr(series, name)
                assert not array.flags.writeable
                assert array.flags.c_contiguous
                with pytest.raises(ValueError):
                    array[...] = 0

    def test_pickle_bytes_do_not_depend_on_iteration(self):
        series = _fresh()
        before = pickle.dumps(series, protocol=pickle.HIGHEST_PROTOCOL)
        list(series)
        assert pickle.dumps(series, protocol=pickle.HIGHEST_PROTOCOL) == before
        # A series packed from lists (runs already built) pickles the same.
        built = RunSeries.from_runs(EXAMPLE, 7, 6)
        assert pickle.dumps(built, protocol=pickle.HIGHEST_PROTOCOL) == before
        # So does a strided slice and the equal contiguous series.
        assert pickle.dumps(series[::2], protocol=pickle.HIGHEST_PROTOCOL) == pickle.dumps(
            RunSeries.from_runs(EXAMPLE[::2], 7, 6), protocol=pickle.HIGHEST_PROTOCOL
        )

    def test_pack_checks_value_type(self):
        with pytest.raises(TypeError, match="expected IPv4Address runs, got IPv6Address"):
            columns_from_runs([_fresh()], value_type=IPv4Address)
        empty = columns_from_runs([RunSeries.from_runs([], 1, 6)], value_type=IPv4Address)
        assert empty.n_runs == 0 and empty.n_probes == 1
