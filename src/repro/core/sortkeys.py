"""Exact multi-column row sort through one packed ``uint64`` key.

``numpy.lexsort`` orders ``k`` integer columns with ``k`` passes of a
stable indirect sort, and every caller then gathers each column through
the permutation.  When the columns' *observed* bit widths add up to at
most 64, the same order comes from one key per row: each column is
offset by its minimum and packed into its own bit field, most
significant column in the high bits, and the key array is sorted in
place with ``ndarray.sort``.  Callers decode only the columns (and only
the rows) they need, straight from the sorted key.

**Why an unstable sort is exact.**  The key covers every column, so two
rows with equal keys are identical rows.  The order among ties is
unobservable, and the decoded columns equal the stable lexsort's
gathered columns element for element.

**Wide keys.**  When the offset widths add up to more than 64 bits, the
widest offset-coded column is replaced by its dense rank (one unstable
``argsort``; the rank needs only ``bit_length(distinct - 1)`` bits) until
the key fits.  If every column is already ranked and the key is still
too wide, the adjacent pair of fields with the largest combined width
is replaced by the dense rank of the pair.  Below ``2**32`` rows every
rank fits in 32 bits, so this always terminates with an exact key;
beyond that a pair whose ranks do not fit raises
:class:`SortKeyOverflowError`.  There is no fallback to another sort.

**Memory.**  The key is built one column at a time, so on the offset
path at most one full-length ``uint64`` temporary is alive next to the
key.  The rank path holds one rank array per ranked field until packing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

_KEY_BITS = 64
_U64 = np.uint64
_U64_MASK = (1 << _KEY_BITS) - 1


class SortKeyOverflowError(Exception):
    """The rows cannot be packed into a 64-bit key, even as dense ranks.

    Only possible with at least ``2**32`` rows: below that every dense
    rank, and every dense rank of a pair of fields, fits in 32 bits.
    """


@dataclass(frozen=True)
class _Field:
    """One bit field of the packed key.

    An offset-coded field (``table is None``) holds one column as
    ``value - base`` modulo ``2**64``.  A rank-coded field holds the
    dense rank of the tuple of its ``columns``; ``table[j][rank]`` is the
    value of ``columns[j]`` at that rank.
    """

    columns: Tuple[int, ...]
    width: int
    base: int = 0
    table: Optional[Tuple[np.ndarray, ...]] = None
    shift: int = 0


def _offset_code(array: np.ndarray, base: int) -> np.ndarray:
    """Fresh ``uint64`` array of ``array - base`` (two's complement wrap)."""
    code = np.empty(len(array), dtype=_U64)
    np.copyto(code, array, casting="unsafe")
    if base:
        code -= _U64(base)
    return code


def _decode(field: _Field, codes: np.ndarray, dtypes: Sequence[np.dtype]) -> List[np.ndarray]:
    """Column values (input dtypes) of ``field`` at the given field codes."""
    if field.table is not None:
        return [values[codes] for values in field.table]
    values = codes + _U64(field.base) if field.base else codes
    return [values.astype(dtypes[field.columns[0]], copy=False)]


def _rank(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Dense ranks of ``values`` and the distinct values in rank order."""
    order = np.argsort(values)
    ordered = values[order]
    new = np.empty(len(ordered), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    distinct = ordered[new]
    del ordered
    ranks = np.empty(len(values), dtype=_U64)
    ranks[order] = np.cumsum(new, dtype=_U64) - _U64(1)
    return ranks, distinct


def _rank_field(
    columns: Tuple[int, ...],
    values: np.ndarray,
    parts: Sequence[Tuple[_Field, int]],
    dtypes: Sequence[np.dtype],
) -> Tuple[_Field, np.ndarray]:
    """Rank-coded field over ``values``, the concatenated codes of ``parts``.

    ``parts`` lists ``(field, shift)`` pairs: the bit position of each
    constituent field's code inside ``values``, so the distinct values
    decode back to per-column tables.
    """
    ranks, distinct = _rank(values)
    table: List[np.ndarray] = []
    for part, shift in parts:
        codes = distinct >> _U64(shift) if shift else distinct
        if part.width < _KEY_BITS:
            codes = codes & _U64((1 << part.width) - 1)
        table.extend(_decode(part, codes, dtypes))
    width = (len(distinct) - 1).bit_length()
    return _Field(columns, width, table=tuple(table)), ranks


def _plan(
    arrays: Sequence[np.ndarray], dtypes: Sequence[np.dtype]
) -> Tuple[List[_Field], List[Optional[np.ndarray]]]:
    """Placed fields (most significant first) and the codes of rank-coded ones."""
    fields: List[_Field] = []
    for index, array in enumerate(arrays):
        if len(array):
            low, high = int(array.min()), int(array.max())
            fields.append(_Field((index,), (high - low).bit_length(), base=low & _U64_MASK))
        else:
            fields.append(_Field((index,), 0))
    codes: List[Optional[np.ndarray]] = [None] * len(fields)
    while sum(field.width for field in fields) > _KEY_BITS:
        offset = [i for i, field in enumerate(fields) if field.table is None and field.width]
        if offset:
            i = max(offset, key=lambda i: fields[i].width)
            field = fields[i]
            values = _offset_code(arrays[field.columns[0]], field.base)
            fields[i], codes[i] = _rank_field(field.columns, values, [(field, 0)], dtypes)
            continue
        # Constant columns hold no bits and cannot affect the order, so
        # the pair is adjacent among the non-empty fields.
        wide = [i for i, field in enumerate(fields) if field.width]
        best = max(
            zip(wide, wide[1:]),
            key=lambda pair: fields[pair[0]].width + fields[pair[1]].width,
            default=None,
        )
        if best is None or fields[best[0]].width + fields[best[1]].width > _KEY_BITS:
            raise SortKeyOverflowError(
                f"{len(arrays[0])} rows: dense ranks of "
                f"{[fields[k].width for k in wide]} bits do not fit one "
                f"{_KEY_BITS}-bit key"
            )
        i, j = best
        high, low = fields[i], fields[j]
        values = codes[i] << _U64(low.width)
        values |= codes[j]
        fields[i], codes[i] = _rank_field(
            high.columns + low.columns, values, [(high, low.width), (low, 0)], dtypes
        )
        del fields[j], codes[j]
    # Place the fields: the last (least significant) in the low bits.
    shift = sum(field.width for field in fields)
    for i, field in enumerate(fields):
        shift -= field.width
        fields[i] = _Field(field.columns, field.width, field.base, field.table, shift)
    return fields, codes


class SortedRows:
    """Rows in lexicographic order, held as one sorted packed key per row.

    Produced by :func:`sort_rows`; ``key`` is the sorted ``uint64``
    array.  :meth:`column` decodes one input column (optionally at
    selected sorted positions) and :meth:`breaks` marks where columns
    change between neighbouring rows; both are exactly what
    ``numpy.lexsort`` followed by gathers would give.
    """

    def __init__(self, key: np.ndarray, fields: Sequence[_Field], dtypes: Sequence[np.dtype]):
        self.key = key
        self._dtypes = tuple(dtypes)
        self._fields = tuple(fields)
        self._field_of = {
            column: field for field in self._fields for column in field.columns
        }

    def __len__(self) -> int:
        return len(self.key)

    def column(self, index: int, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Input column ``index`` in sorted order, in its input dtype.

        ``rows`` (sorted positions, any integer index array) restricts
        the decode to those rows, so a caller that needs a column only
        at group starts never materializes it in full.
        """
        field = self._field_of[index]
        key = self.key if rows is None else self.key[rows]
        mask = _U64((1 << field.width) - 1)
        if field.width == 0:
            codes = np.zeros(len(key), dtype=_U64)
        elif field.shift:
            codes = key >> _U64(field.shift)
            if field.shift + field.width < _KEY_BITS:
                codes &= mask
        else:
            codes = key & mask if field.width < _KEY_BITS else key.copy()
        return _decode(field, codes, self._dtypes)[field.columns.index(index)]

    def breaks(self, *indices: int) -> np.ndarray:
        """Boolean array: row 0, and every row where any of ``indices`` changes.

        Columns that own their bit fields are compared by masking the
        XOR of neighbouring keys; a column sharing a rank-coded field
        with columns not asked for is decoded and compared directly.
        """
        n = len(self.key)
        out = np.zeros(n, dtype=bool)
        if n == 0:
            return out
        out[0] = True
        asked = set(indices)
        mask = 0
        used = 0
        decoded: List[int] = []
        for field in self._fields:
            bits = ((1 << field.width) - 1) << field.shift
            used |= bits
            if asked.intersection(field.columns):
                if asked.issuperset(field.columns):
                    mask |= bits
                else:
                    decoded.extend(sorted(asked.intersection(field.columns)))
        if mask == used and mask:
            np.not_equal(self.key[1:], self.key[:-1], out=out[1:])
        elif mask:
            diff = self.key[1:] ^ self.key[:-1]
            diff &= _U64(mask)
            np.not_equal(diff, 0, out=out[1:])
            del diff
        for index in decoded:
            values = self.column(index)
            out[1:] |= values[1:] != values[:-1]
        return out


def sort_rows(*columns: np.ndarray) -> SortedRows:
    """Sort rows lexicographically by ``columns``, most significant first.

    Equivalent to ``numpy.lexsort(columns[::-1])`` followed by a gather of
    every column (note the reversed argument order: ``numpy.lexsort`` takes
    its primary key last), for 1-D integer or boolean columns of equal
    length.  Raises :class:`SortKeyOverflowError` instead of falling
    back when no exact 64-bit key exists (only possible at ``2**32`` or
    more rows).
    """
    if not columns:
        raise ValueError("sort_rows needs at least one column")
    arrays = [np.asarray(column) for column in columns]
    for array in arrays:
        if array.ndim != 1:
            raise ValueError("sort_rows columns must be one-dimensional")
        if array.dtype.kind not in "biu":
            raise TypeError(f"sort_rows needs integer or boolean columns, got {array.dtype}")
    n = len(arrays[0])
    if any(len(array) != n for array in arrays):
        raise ValueError("sort_rows columns must have equal length")
    dtypes = [array.dtype for array in arrays]
    fields, codes = _plan(arrays, dtypes)

    key: Optional[np.ndarray] = None
    for i, field in enumerate(fields):
        if field.width == 0:
            continue
        code = codes[i]
        codes[i] = None
        if code is None:
            code = _offset_code(arrays[field.columns[0]], field.base)
        if field.shift:
            code <<= _U64(field.shift)
        if key is None:
            key = code
        else:
            key |= code
        del code
    if key is None:
        key = np.zeros(n, dtype=_U64)
    key.sort()
    return SortedRows(key, fields, dtypes)


__all__ = ["SortKeyOverflowError", "SortedRows", "sort_rows"]
