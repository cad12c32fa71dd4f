"""Property tests for the packed-key row sort (:mod:`repro.core.sortkeys`).

Every result is checked against ``np.lexsort`` followed by gathers, the
oracle the kernel replaces: decoded columns (whole and at selected
rows), their dtypes, and the change masks callers derive runs from.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import sortkeys
from repro.core.sortkeys import SortKeyOverflowError, sort_rows

DTYPES = (np.uint16, np.uint32, np.uint64, np.int64)


def _lexsorted(columns):
    """The oracle: stable lexsort (primary key first here), then gathers."""
    order = np.lexsort(columns[::-1])
    return [column[order] for column in columns]


def _oracle_breaks(sorted_columns, indices):
    n = len(sorted_columns[0])
    out = np.zeros(n, dtype=bool)
    if n:
        out[0] = True
        for index in indices:
            values = sorted_columns[index]
            out[1:] |= values[1:] != values[:-1]
    return out


def _assert_matches_lexsort(columns, rows=None):
    rows = sort_rows(*columns) if rows is None else rows
    expected = _lexsorted(columns)
    assert len(rows) == len(columns[0])
    for index, (column, want) in enumerate(zip(columns, expected)):
        got = rows.column(index)
        assert got.dtype == column.dtype
        assert np.array_equal(got, want)
        picks = np.arange(0, len(want), 3)
        picked = rows.column(index, picks)
        assert picked.dtype == column.dtype
        assert np.array_equal(picked, want[picks])
    for size in range(1, len(columns) + 1):
        for indices in (tuple(range(size)), tuple(range(len(columns) - size, len(columns)))):
            assert np.array_equal(rows.breaks(*indices), _oracle_breaks(expected, indices))
    return rows


@st.composite
def column_sets(draw, max_columns=3, max_rows=40):
    """1-3 equal-length columns; values come from small pools so rows repeat."""
    rows = draw(st.integers(min_value=0, max_value=max_rows))
    columns = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_columns))):
        dtype = np.dtype(draw(st.sampled_from(DTYPES)))
        info = np.iinfo(dtype)
        pool = draw(
            st.lists(
                st.integers(min_value=int(info.min), max_value=int(info.max)),
                min_size=1,
                max_size=16,
            )
        )
        values = draw(st.lists(st.sampled_from(pool), min_size=rows, max_size=rows))
        columns.append(np.array(values, dtype=dtype))
    return columns


@given(columns=column_sets())
@settings(max_examples=150, deadline=None)
def test_matches_lexsort(columns):
    _assert_matches_lexsort(columns)


@given(columns=column_sets(max_rows=24), budget=st.integers(min_value=3, max_value=12))
@settings(max_examples=150, deadline=None)
def test_narrow_key_budget_is_exact_or_raises(columns, budget):
    # A key budget of a few bits makes ranks overflow at tens of rows,
    # driving the rank and pair-rank paths (and the named error) on
    # small data.
    with mock.patch.object(sortkeys, "_KEY_BITS", budget):
        try:
            rows = sort_rows(*columns)
        except SortKeyOverflowError:
            return
        _assert_matches_lexsort(columns, rows)


@pytest.mark.parametrize("dtype", DTYPES)
def test_empty_single_row_and_all_equal(dtype):
    for rows in (0, 1, 7):
        columns = [np.full(rows, 5, dtype=dtype), np.zeros(rows, dtype=np.int64)]
        _assert_matches_lexsort(columns)
        _assert_matches_lexsort(columns[:1])


def test_negative_int64_extremes():
    info = np.iinfo(np.int64)
    values = np.array([info.max, -1, info.min, 0, info.min, 7, -1], dtype=np.int64)
    _assert_matches_lexsort([values, values[::-1].copy()])
    _assert_matches_lexsort([values])


def test_full_width_uint64_takes_the_rank_path():
    rng = np.random.default_rng(3)
    v6 = rng.integers(0, np.iinfo(np.uint64).max, 5000, dtype=np.uint64, endpoint=True)
    v6[:2] = (0, np.iinfo(np.uint64).max)
    day = rng.integers(0, 120, 5000).astype(np.uint16)
    v4 = (rng.integers(0, 1 << 24, 5000) << 8).astype(np.uint32)
    columns = [v6[rng.integers(0, 5000, 5000)], day, v4]
    rows = _assert_matches_lexsort(columns)
    assert any(field.table is not None for field in rows._fields)


def test_ranks_wider_than_the_key_densify_a_pair():
    # Four full-width columns of ~86k distinct values each (200k rows,
    # so values repeat): every rank needs 17 bits, 68 in all, so a pair
    # of ranks must be densified again.
    rng = np.random.default_rng(5)
    columns = []
    for _ in range(4):
        pool = rng.integers(0, np.iinfo(np.uint64).max, 100_000, dtype=np.uint64, endpoint=True)
        columns.append(pool[rng.integers(0, len(pool), 200_000)])
    rows = _assert_matches_lexsort(columns)
    assert any(len(field.columns) > 1 for field in rows._fields)


def test_overflow_raises_the_named_error():
    values = np.arange(64, dtype=np.uint64) * np.uint64(1 << 40)
    with mock.patch.object(sortkeys, "_KEY_BITS", 10):
        with pytest.raises(SortKeyOverflowError):
            sort_rows(values, values[::-1].copy())


def test_rejects_bad_input():
    with pytest.raises(TypeError):
        sort_rows(np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        sort_rows(np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError):
        sort_rows(np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        sort_rows()
