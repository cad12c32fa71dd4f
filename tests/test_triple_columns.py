"""Tests for the columnar CDN dataset (``TripleColumns``).

A :class:`~repro.core.associations_np.TripleColumns` must behave as the
``Sequence[Triple]`` it replaced — same tuples, same indexing, same
equality — while handing the columnar kernels its read-only arrays.
Every adapter that narrows a /64 key must refuse a key with low bits
set, and a scenario store built straight from the per-AS columns must
be byte-identical to the tuple-fed build.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.associations import association_box_stats
from repro.core.associations_np import TripleColumns, columns_from_triples
from repro.perf.verify import cdn_scenario_diffs
from repro.store import build_store_from_triples, triple_column_batches
from repro.workloads import build_cdn_scenario, build_cdn_triple_store

CDN_SCALE = dict(
    days=12,
    fixed_subscribers_per_registry=24,
    mobile_devices_per_registry=30,
    featured_subscribers=24,
)

triples_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=0, max_value=(1 << 24) - 1).map(lambda k: k << 8),
        st.integers(min_value=0, max_value=(1 << 64) - 1).map(lambda k: k << 64),
    ),
    max_size=60,
)

EXAMPLE = [(3, 1 << 8, 5 << 64), (1, 2 << 8, 6 << 64), (7, 3 << 8, ((1 << 64) - 1) << 64)]


@pytest.fixture(scope="module")
def scenario():
    return build_cdn_scenario(seed=4, workers=1, cache=False, **CDN_SCALE)


class TestTripleColumns:
    @given(triples_strategy)
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, triples):
        columns = TripleColumns.from_triples(triples)
        assert len(columns) == len(triples)
        assert list(columns) == triples
        assert TripleColumns.from_triples(iter(triples)) == triples

    def test_getitem(self):
        columns = TripleColumns.from_triples(EXAMPLE)
        assert columns[0] == EXAMPLE[0]
        assert columns[-1] == EXAMPLE[-1]
        assert all(type(value) is int for value in columns[2])
        with pytest.raises(IndexError):
            columns[len(EXAMPLE)]
        window = columns[1:]
        assert isinstance(window, TripleColumns)
        assert list(window) == EXAMPLE[1:]
        assert list(columns[::-2]) == EXAMPLE[::-2]
        assert list(columns[5:]) == []

    def test_concat(self):
        empty = TripleColumns.concat([])
        assert len(empty) == 0 and list(empty) == []
        assert empty.days.dtype == np.int64 and empty.v6.dtype == np.uint64
        one = TripleColumns.from_triples(EXAMPLE)
        assert TripleColumns.concat([one]) is one
        many = TripleColumns.concat([one[:1], empty, one[1:], one])
        assert list(many) == EXAMPLE + EXAMPLE

    def test_pickle_round_trip_stays_read_only(self):
        columns = TripleColumns.from_triples(EXAMPLE)
        restored = pickle.loads(pickle.dumps(columns))
        assert restored == columns
        assert not restored.days.flags.writeable
        assert not restored.v6.flags.writeable

    def test_arrays_are_read_only(self):
        days, v4, v6 = columns_from_triples(EXAMPLE)
        for array in (days, v4, v6):
            with pytest.raises(ValueError):
                array.sort()
        # Wrapping a caller's array does not freeze the caller's copy.
        source = np.arange(3, dtype=np.int64)
        TripleColumns(source, np.zeros(3, np.uint64), np.zeros(3, np.uint64))
        source[0] = 9

    def test_equality_is_a_bool(self):
        columns = TripleColumns.from_triples(EXAMPLE)
        same = TripleColumns.from_triples(list(EXAMPLE))
        assert (columns == same) is True
        assert (columns == EXAMPLE) is True
        assert (EXAMPLE == columns) is True
        assert (columns == EXAMPLE[:2]) is False
        assert (columns == columns[:2]) is False
        assert (columns != same) is False
        assert {1: columns} == {1: same}
        assert columns != "not triples"

    def test_rejects_malformed_columns(self):
        with pytest.raises(ValueError, match="equal length"):
            TripleColumns([1, 2], [0], [0])
        with pytest.raises(ValueError, match="one-dimensional"):
            TripleColumns(np.zeros((2, 2)), [0, 0], [0, 0])

    @given(triples_strategy)
    @settings(max_examples=30, deadline=None)
    def test_box_stats_match_py_reference(self, triples):
        columns = TripleColumns.from_triples(triples)
        if not triples:
            with pytest.raises(ValueError):
                association_box_stats(columns)
            return
        assert association_box_stats(columns) == association_box_stats(triples, engine="py")
        assert association_box_stats(columns, engine="py") == association_box_stats(
            triples, engine="py"
        )


class TestNonSlash64KeysFailLoudly:
    BAD = [(0, 1 << 8, 5 << 64), (1, 1 << 8, (6 << 64) | 1)]

    def test_columns_from_triples(self):
        with pytest.raises(ValueError, match=f"{(6 << 64) | 1:#x}"):
            columns_from_triples(self.BAD)

    def test_triple_column_batches(self):
        with pytest.raises(ValueError, match="not a /64"):
            list(triple_column_batches(iter(self.BAD), batch_rows=1))

    def test_triple_columns_construction(self):
        with pytest.raises(ValueError, match="not a /64"):
            TripleColumns.from_triples(self.BAD)


class TestColumnarDataset:
    def test_per_as_columns(self, scenario):
        dataset = scenario.dataset
        assert dataset.triples_by_asn
        for triples in dataset.triples_by_asn.values():
            assert isinstance(triples, TripleColumns)
        assert len(dataset.all_triples()) == dataset.total_kept
        assert list(dataset.all_triples()) == list(dataset.iter_triples())
        assert len(dataset.triples_for(-1)) == 0

    def test_unique_v6_keys(self, scenario):
        dataset = scenario.dataset
        assert dataset.unique_v6_keys() == {t[2] for t in dataset.iter_triples()}
        asn = next(iter(dataset.triples_by_asn))
        assert dataset.unique_v6_keys(asn) == {t[2] for t in dataset.triples_for(asn)}

    def test_diff_names_the_differing_column(self, scenario):
        asn, triples = next(iter(scenario.dataset.triples_by_asn.items()))
        v4 = triples.v4.copy()
        v4[0] += np.uint64(256)
        altered = dataclasses.replace(
            scenario.dataset,
            triples_by_asn={
                **scenario.dataset.triples_by_asn,
                asn: TripleColumns(triples.days, v4, triples.v6),
            },
        )
        assert cdn_scenario_diffs(scenario, scenario) == []
        assert cdn_scenario_diffs(
            scenario, dataclasses.replace(scenario, dataset=altered)
        ) == [f"dataset.triples_by_asn[{asn}].v4 differs"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_store_from_columns_matches_tuple_build(self, scenario, tmp_path, workers):
        columnar = build_cdn_triple_store(
            scenario, tmp_path / "columns", shards=4, workers=workers
        )
        tupled = build_store_from_triples(
            scenario.dataset.iter_triples(), tmp_path / "tuples", shards=4, workers=1
        )
        assert sum(columnar.shard_rows) == scenario.dataset.total_kept
        assert columnar.digest() == tupled.digest()
