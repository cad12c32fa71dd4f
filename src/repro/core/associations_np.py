"""NumPy-vectorized CDN association analytics.

The pure-Python functions in :mod:`repro.core.associations` are the
reference implementation; these vectorized equivalents handle
multi-million-tuple datasets (the paper's CDN feed is billions of
tuples) an order of magnitude faster.  The test suite asserts exact
agreement between the two implementations on random inputs.

Input is columnar: three equal-length arrays ``days`` (int), ``v4_keys``
(uint32 /24 network addresses) and ``v6_keys``.  Because NumPy has no
native 128-bit integer, /64 keys are passed as the *upper 64 bits* of
the /64 network address (``int(prefix.network) >> 64``), which is a
bijection for /64s.  :class:`TripleColumns` holds a triple population in
exactly that form (the CDN dataset keeps one per origin AS), and its
:meth:`TripleColumns.from_triples` is the one triples-to-columns step,
refusing any v6 key that is not a /64 network address.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat
from operator import and_, eq, itemgetter, lshift, rshift
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.associations import BoxStats, Triple
from repro.core.sortkeys import sort_rows

_M64 = (1 << 64) - 1


def _v6_key_column(v6_keys: Sequence[int]) -> np.ndarray:
    """Narrow full 128-bit /64 keys to their upper-64-bit ``uint64`` column.

    The one place a /64 key is narrowed: every triples-to-columns
    adapter goes through :meth:`TripleColumns.from_triples`.  A key
    with any of its low 64 bits set is not a /64 network address, and
    narrowing it would silently disagree with the pure-Python
    reference, so it raises ``ValueError`` naming the first such key.
    """
    if any(map(and_, v6_keys, repeat(_M64))):
        bad = next(key for key in v6_keys if key & _M64)
        raise ValueError(f"v6 key {bad:#x} is not a /64 network address (low 64 bits set)")
    return np.fromiter(map(rshift, v6_keys, repeat(64)), dtype=np.uint64, count=len(v6_keys))


class TripleColumns(Sequence):
    """Association triples as three read-only columns.

    ``days`` (int64), ``v4`` (uint64 /24 network addresses) and ``v6``
    (uint64, the *upper 64 bits* of the /64 network address) are the
    arrays the columnar kernels take, so :func:`columns_from_triples`
    hands them over without a conversion.  As a ``Sequence[Triple]`` it
    yields the same ``(day, v4_key, v6_key)`` tuples, full 128-bit
    ``v6_key`` included, that a list of triples would — the pure-Python
    reference and the CSV writer iterate it unchanged.

    The arrays are read-only, so a kernel that sorts an input in place
    fails loudly instead of corrupting the dataset that shares them.
    """

    __slots__ = ("days", "v4", "v6")

    def __init__(self, days, v4, v6) -> None:
        columns = []
        for array, dtype in ((days, np.int64), (v4, np.uint64), (v6, np.uint64)):
            array = np.asarray(array, dtype=dtype)
            if array.ndim != 1:
                raise ValueError("triple columns must be one-dimensional")
            view = array.view()
            view.flags.writeable = False
            columns.append(view)
        if not len(columns[0]) == len(columns[1]) == len(columns[2]):
            raise ValueError("triple columns must have equal length")
        self.days, self.v4, self.v6 = columns

    @classmethod
    def from_triples(cls, triples: Iterable[Triple]) -> "TripleColumns":
        """Pack ``(day, v4_key, v6_key)`` triples (full 128-bit v6 keys)."""
        if isinstance(triples, cls):
            return triples
        rows = triples if isinstance(triples, Sequence) else list(triples)
        count = len(rows)
        return cls(
            np.fromiter(map(itemgetter(0), rows), dtype=np.int64, count=count),
            np.fromiter(map(itemgetter(1), rows), dtype=np.uint64, count=count),
            _v6_key_column(list(map(itemgetter(2), rows))),
        )

    @classmethod
    def concat(cls, parts: Iterable["TripleColumns"]) -> "TripleColumns":
        """The rows of ``parts`` in order (one part is returned as is)."""
        parts = list(parts)
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return cls(np.empty(0, np.int64), np.empty(0, np.uint64), np.empty(0, np.uint64))
        return cls(
            np.concatenate([part.days for part in parts]),
            np.concatenate([part.v4 for part in parts]),
            np.concatenate([part.v6 for part in parts]),
        )

    def __len__(self) -> int:
        return len(self.days)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return TripleColumns(self.days[index], self.v4[index], self.v6[index])
        return (int(self.days[index]), int(self.v4[index]), int(self.v6[index]) << 64)

    def __iter__(self) -> Iterator[Triple]:
        return zip(
            self.days.tolist(), self.v4.tolist(), map(lshift, self.v6.tolist(), repeat(64))
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TripleColumns):
            return (
                np.array_equal(self.days, other.days)
                and np.array_equal(self.v4, other.v4)
                and np.array_equal(self.v6, other.v6)
            )
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __reduce__(self):
        # Unpickled arrays come back writeable; rebuilding through
        # __init__ makes them read-only again.
        return (TripleColumns, (self.days, self.v4, self.v6))


def columns_from_triples(triples: Iterable[Triple]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(days, v4, v6)`` columns of ``triples``; see :class:`TripleColumns`.

    A :class:`TripleColumns` hands over its own (read-only) arrays
    without iterating; other sequences are packed once, and only true
    generators are materialized first.
    """
    columns = TripleColumns.from_triples(triples)
    return columns.days, columns.v4, columns.v6


def association_durations_np(
    days: np.ndarray, v4_keys: np.ndarray, v6_keys: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`repro.core.associations.association_durations`.

    Returns the array of run durations (days), in no particular order.
    """
    if not (len(days) == len(v4_keys) == len(v6_keys)):
        raise ValueError("column arrays must have equal length")
    if len(days) == 0:
        return np.empty(0, dtype=np.int64)
    rows = sort_rows(v6_keys, days, v4_keys)
    # A new run starts where the /64 changes or the /24 changes.
    run_starts = np.flatnonzero(rows.breaks(0, 2))
    run_ends = np.empty_like(run_starts)
    run_ends[:-1] = run_starts[1:] - 1
    run_ends[-1] = len(days) - 1
    return rows.column(1, run_ends) - rows.column(1, run_starts) + 1


def degree_count_arrays(
    primary: np.ndarray, secondary: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array form of the degree kernel: ``(keys, unique, hits)``.

    ``keys`` are the sorted distinct ``primary`` values, ``unique[i]``
    the number of distinct ``secondary`` partners of ``keys[i]`` and
    ``hits[i]`` its total row count.  Safe on empty and single-row
    populations (sparse shards), so out-of-core partials can call it
    per shard without pre-checking; returns empty arrays for empty
    input.
    """
    if len(primary) != len(secondary):
        raise ValueError("column arrays must have equal length")
    if len(primary) == 0:
        empty_keys = np.empty(0, dtype=np.asarray(primary).dtype)
        return empty_keys, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    keys, unique_counts, hit_counts = _degree_count_arrays_nonempty(primary, secondary)
    return keys, unique_counts, hit_counts


def _degree_count_arrays_nonempty(
    primary: np.ndarray, secondary: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct-partner and total-hit counts per ``primary`` key.

    One packed-key sort (:func:`repro.core.sortkeys.sort_rows`) plus
    adjacent-difference passes: a new *key group* starts where the
    primary changes in the sorted order, and a new *pair* wherever the
    packed key changes at all.
    """
    rows = sort_rows(primary, secondary)
    key_starts = np.flatnonzero(rows.breaks(0))
    keys = rows.column(0, key_starts)
    hit_counts = np.diff(np.append(key_starts, len(rows)))
    # Distinct partners of a key: the pair starts inside its group.
    unique_counts = np.add.reduceat(rows.breaks(0, 1), key_starts, dtype=np.int64)
    return keys, unique_counts, hit_counts


def _degree_counts_sorted(
    primary: np.ndarray, secondary: np.ndarray
) -> Tuple[Dict[int, int], Dict[int, int]]:
    keys, unique_counts, hit_counts = degree_count_arrays(primary, secondary)
    keys_list = keys.tolist()
    return (
        dict(zip(keys_list, unique_counts.tolist())),
        dict(zip(keys_list, hit_counts.tolist())),
    )


def v4_degree_counts_np(
    v4_keys: np.ndarray, v6_keys: np.ndarray
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Vectorized :func:`repro.core.associations.v4_degree_counts`."""
    if len(v4_keys) != len(v6_keys):
        raise ValueError("column arrays must have equal length")
    if len(v4_keys) == 0:
        return {}, {}
    return _degree_counts_sorted(v4_keys, v6_keys)


def v6_degree_counts_np(v4_keys: np.ndarray, v6_keys: np.ndarray) -> Dict[int, int]:
    """Vectorized :func:`repro.core.associations.v6_degree_counts`."""
    if len(v4_keys) != len(v6_keys):
        raise ValueError("column arrays must have equal length")
    if len(v4_keys) == 0:
        return {}
    keys, unique_counts, _hits = degree_count_arrays(v6_keys, v4_keys)
    return dict(zip(keys.tolist(), unique_counts.tolist()))


def duration_percentiles_np(
    durations: np.ndarray, fractions: Sequence[float] = (0.05, 0.25, 0.5, 0.75, 0.95)
) -> List[float]:
    """Linear-interpolation percentiles matching ``box_stats``."""
    if len(durations) == 0:
        raise ValueError("cannot take percentiles of empty data")
    return [float(value) for value in np.quantile(durations, fractions)]


def box_stats_np(
    durations: np.ndarray, empty_ok: bool = False
) -> Optional[BoxStats]:
    """Bit-identical :func:`repro.core.associations.box_stats` over an array.

    ``np.quantile`` interpolates as ``a + (b - a) * t``, which can differ
    from the reference's ``a * (1 - w) + b * w`` in the last ulp, so the
    percentiles are evaluated with the reference's exact expression over
    one ``np.sort`` (each percentile is O(1) after the sort).

    Empty input raises like the reference unless ``empty_ok`` — the
    escape hatch sparse out-of-core shards use to report "no box"
    (``None``) instead of blowing up a whole partial.
    """
    ordered = np.sort(np.asarray(durations))
    n = len(ordered)
    if n == 0:
        if empty_ok:
            return None
        raise ValueError("cannot take percentile of empty data")

    def percentile(fraction: float) -> float:
        if n == 1:
            return float(ordered[0])
        position = fraction * (n - 1)
        low = int(math.floor(position))
        high = int(math.ceil(position))
        low_value = float(ordered[low])
        high_value = float(ordered[high])
        if low == high or low_value == high_value:
            return low_value
        weight = position - low
        return low_value * (1 - weight) + high_value * weight

    return BoxStats(
        p5=percentile(0.05),
        q1=percentile(0.25),
        median=percentile(0.50),
        q3=percentile(0.75),
        p95=percentile(0.95),
        count=n,
    )


def box_stats_from_counts(
    values: np.ndarray, counts: np.ndarray, empty_ok: bool = False
) -> Optional[BoxStats]:
    """Exact :func:`box_stats_np` over a value histogram.

    Out-of-core runs never hold every duration at once — they accumulate
    ``counts[i]`` occurrences of ``values[i]`` (days fit in a small
    histogram).  The k-th order statistic of the expanded multiset is
    recovered with a cumulative-sum ``searchsorted``, and each
    percentile then uses the reference's exact
    ``low * (1 - w) + high * w`` expression — bit-identical to sorting
    the expanded array, without materializing it.
    """
    values = np.asarray(values)
    counts = np.asarray(counts, dtype=np.int64)
    if len(values) != len(counts):
        raise ValueError("values and counts must have equal length")
    keep = counts > 0
    values = values[keep]
    counts = counts[keep]
    order = np.argsort(values, kind="stable")
    values = values[order]
    counts = counts[order]
    cumulative = np.cumsum(counts)
    n = int(cumulative[-1]) if len(cumulative) else 0
    if n == 0:
        if empty_ok:
            return None
        raise ValueError("cannot take percentile of empty data")

    def order_stat(index: int) -> float:
        # ordered[index] of the expanded multiset: first bucket whose
        # cumulative count exceeds ``index``.
        return float(values[np.searchsorted(cumulative, index, side="right")])

    def percentile(fraction: float) -> float:
        if n == 1:
            return order_stat(0)
        position = fraction * (n - 1)
        low = int(math.floor(position))
        high = int(math.ceil(position))
        low_value = order_stat(low)
        high_value = order_stat(high)
        if low == high or low_value == high_value:
            return low_value
        weight = position - low
        return low_value * (1 - weight) + high_value * weight

    return BoxStats(
        p5=percentile(0.05),
        q1=percentile(0.25),
        median=percentile(0.50),
        q3=percentile(0.75),
        p95=percentile(0.95),
        count=n,
    )


def unpack_v6_degree_keys(degree_counts: Dict[int, int]) -> Dict[int, int]:
    """Re-expand packed upper-64-bit /64 keys to full integer keys."""
    return {key << 64: count for key, count in degree_counts.items()}


__all__ = [
    "TripleColumns",
    "association_durations_np",
    "box_stats_from_counts",
    "box_stats_np",
    "columns_from_triples",
    "degree_count_arrays",
    "duration_percentiles_np",
    "unpack_v6_degree_keys",
    "v4_degree_counts_np",
    "v6_degree_counts_np",
]
