"""IP echo measurement records.

An :class:`EchoRecord` is one hourly measurement: the address the echo
server saw (``client_ip``) and the address the probe itself was
configured with (``src_addr``).  For a typical residential IPv4 probe
behind NAT, ``client_ip`` is the CPE's public address while ``src_addr``
is an RFC 1918 address; in IPv6 the two coincide.

:class:`EchoRun` is the run-length-encoded form: a maximal streak of
consecutive measurements reporting the same ``client_ip`` value.  Runs
carry enough bookkeeping (first/last observed hour, number of observed
hours, largest internal observation gap) for the paper's duration
analysis to decide whether the streak was *continuously observed*.

:class:`RunSeries` holds one probe's single-family runs as read-only
columns (``value_hi``/``value_lo`` uint64, ``first``/``last``/
``observed``/``max_gap`` int64).  The collection, sanitization and
column-pack stages pass these arrays along unchanged; the series is
still a ``Sequence[EchoRun]`` for the pure-Python reference, the query
service and the writers, and builds its :class:`EchoRun` tuple once,
on first element access.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from operator import attrgetter, eq, lshift, or_
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.ip.addr import IPAddress, IPv4Address, IPv6Address

#: The RIPE NCC address probes report while being tested before shipping;
#: Appendix A.1 removes all records carrying it.
TEST_ADDRESS = IPv4Address.parse("193.0.0.78")

#: RFC 1918 private ranges, used to recognize typical NATed probes.
_PRIVATE_V4 = (
    (0x0A000000, 0xFF000000),  # 10.0.0.0/8
    (0xAC100000, 0xFFF00000),  # 172.16.0.0/12
    (0xC0A80000, 0xFFFF0000),  # 192.168.0.0/16
)


def is_private_v4(address: IPv4Address) -> bool:
    """True when ``address`` falls in an RFC 1918 range."""
    value = int(address)
    return any((value & mask) == network for network, mask in _PRIVATE_V4)


@dataclass(frozen=True)
class EchoRecord:
    """One hourly IP echo measurement."""

    probe_id: int
    hour: int
    family: int  # 4 or 6
    client_ip: IPAddress
    src_addr: IPAddress

    def __post_init__(self) -> None:
        if self.family not in (4, 6):
            raise ValueError(f"family must be 4 or 6, got {self.family}")


@dataclass(frozen=True)
class EchoRun:
    """A maximal streak of measurements reporting the same client value.

    ``first``/``last`` are the first and last hours (inclusive) at which
    the value was observed; ``observed`` counts the hours actually
    measured within that span and ``max_gap`` is the largest number of
    consecutive missing hours inside the span (0 when fully observed).
    """

    probe_id: int
    family: int
    value: IPAddress
    first: int
    last: int
    observed: int
    max_gap: int = 0

    def __post_init__(self) -> None:
        if self.last < self.first:
            raise ValueError(f"run ends ({self.last}) before it starts ({self.first})")
        span = self.last - self.first + 1
        if not 1 <= self.observed <= span:
            raise ValueError(f"observed={self.observed} impossible for span {span}")

    @property
    def span(self) -> int:
        """Hours from first to last observation, inclusive."""
        return self.last - self.first + 1

    def fully_observed(self, max_gap: int = 0) -> bool:
        """Whether no internal observation gap exceeds ``max_gap`` hours."""
        return self.max_gap <= max_gap


_M64 = (1 << 64) - 1
#: Address class of each family's run values.
_VALUE_TYPES = {4: IPv4Address, 6: IPv6Address}
#: Column names and dtypes of a :class:`RunSeries`, in constructor order.
RUN_FIELDS = (
    ("value_hi", np.uint64),
    ("value_lo", np.uint64),
    ("first", np.int64),
    ("last", np.int64),
    ("observed", np.int64),
    ("max_gap", np.int64),
)


class RunSeries(Sequence):
    """One probe's single-family runs as six read-only columns.

    ``value_hi``/``value_lo`` split each run value into two uint64
    halves (an IPv4 address is the low 32 bits of ``value_lo``);
    ``first``/``last``/``observed``/``max_gap`` are the :class:`EchoRun`
    fields as int64.  ``probe_id`` and ``family`` are scalars.

    As a ``Sequence[EchoRun]`` the series yields the same runs a list
    would.  It builds that tuple at most once, on first element access,
    and :class:`EchoRun` validation runs then, so impossible arrays
    raise there.  Equality with another sequence is a bool.  Pickling
    keeps only the scalars and the arrays, so the bytes do not depend
    on whether the runs were built.  The arrays are contiguous and
    read-only, also after unpickling.
    """

    __slots__ = ("probe_id", "family") + tuple(name for name, _ in RUN_FIELDS) + ("_runs",)

    def __init__(
        self, probe_id: int, family: int, value_hi, value_lo, first, last, observed, max_gap
    ) -> None:
        if family not in _VALUE_TYPES:
            raise ValueError(f"family must be 4 or 6, got {family}")
        self.probe_id = int(probe_id)
        self.family = int(family)
        length = None
        arrays = (value_hi, value_lo, first, last, observed, max_gap)
        for (name, dtype), array in zip(RUN_FIELDS, arrays):
            array = np.ascontiguousarray(array, dtype=dtype)
            if array.ndim != 1:
                raise ValueError("run columns must be one-dimensional")
            if length is None:
                length = len(array)
            elif len(array) != length:
                raise ValueError("run columns must have equal length")
            view = array.view()
            view.flags.writeable = False
            setattr(self, name, view)
        self._runs: Optional[Tuple[EchoRun, ...]] = None

    @classmethod
    def from_runs(cls, runs: Iterable[EchoRun], probe_id: int, family: int) -> "RunSeries":
        """Pack ``runs`` of probe ``probe_id`` and ``family``.

        A :class:`RunSeries` of that probe and family is returned as is.
        Every run must carry ``probe_id``, ``family`` and a value of the
        family's address class; anything else raises, naming the first
        offending run, because the series could not give it back.
        """
        value_type = _VALUE_TYPES.get(family)
        if value_type is None:
            raise ValueError(f"family must be 4 or 6, got {family}")
        if isinstance(runs, cls):
            if runs.family != family or (len(runs) and runs.probe_id != probe_id):
                raise ValueError(
                    f"series of probe {runs.probe_id} family {runs.family} given as "
                    f"probe {probe_id} family {family}"
                )
            return runs
        rows = tuple(runs)
        for run in rows:
            if run.probe_id != probe_id or run.family != family:
                raise ValueError(f"run {run!r} is not of probe {probe_id} family {family}")
            if type(run.value) is not value_type:
                raise TypeError(
                    f"expected {value_type.__name__} runs, got {type(run.value).__name__}"
                )
        count = len(rows)
        values = [run.value.value for run in rows]

        def column(name: str) -> np.ndarray:
            return np.fromiter(map(attrgetter(name), rows), dtype=np.int64, count=count)

        series = cls(
            probe_id,
            family,
            np.fromiter((value >> 64 for value in values), dtype=np.uint64, count=count),
            np.fromiter((value & _M64 for value in values), dtype=np.uint64, count=count),
            column("first"),
            column("last"),
            column("observed"),
            column("max_gap"),
        )
        series._runs = rows
        return series

    @property
    def value_type(self) -> type:
        """Address class of the run values (by ``family``)."""
        return _VALUE_TYPES[self.family]

    def _materialize(self) -> Tuple[EchoRun, ...]:
        # Threads that race here build equal tuples; either one is kept.
        runs = self._runs
        if runs is None:
            if self.family == 4:
                if np.any(self.value_hi):
                    raise ValueError("IPv4 run values must have value_hi == 0")
                values = map(IPv4Address, self.value_lo.tolist())
            else:
                values = map(
                    IPv6Address,
                    map(
                        or_,
                        map(lshift, self.value_hi.tolist(), repeat(64)),
                        self.value_lo.tolist(),
                    ),
                )
            runs = tuple(
                map(
                    EchoRun,
                    repeat(self.probe_id),
                    repeat(self.family),
                    values,
                    self.first.tolist(),
                    self.last.tolist(),
                    self.observed.tolist(),
                    self.max_gap.tolist(),
                )
            )
            self._runs = runs
        return runs

    def _arrays(self) -> Tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name, _ in RUN_FIELDS)

    def __len__(self) -> int:
        return len(self.first)

    def __getitem__(self, index):
        if isinstance(index, slice):
            sliced = RunSeries(
                self.probe_id, self.family, *(array[index] for array in self._arrays())
            )
            if self._runs is not None:
                sliced._runs = self._runs[index]
            return sliced
        return self._materialize()[index]

    def __iter__(self) -> Iterator[EchoRun]:
        return iter(self._materialize())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RunSeries):
            if len(self) != len(other):
                return False
            if not len(self):
                return True
            return (
                self.probe_id == other.probe_id
                and self.family == other.family
                and all(map(np.array_equal, self._arrays(), other._arrays()))
            )
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other: Sequence) -> List[EchoRun]:
        """The runs of both operands as one list, as list ``+`` gives."""
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) + list(other)

    def __radd__(self, other: Sequence) -> List[EchoRun]:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(other) + list(self)

    def __repr__(self) -> str:
        return f"RunSeries(probe_id={self.probe_id}, family={self.family}, runs={len(self)})"

    def __reduce__(self):
        # Only the scalars and arrays: rebuilding through __init__ makes
        # the unpickled arrays read-only again and leaves the runs unbuilt.
        return (RunSeries, (self.probe_id, self.family) + self._arrays())


def runs_from_hourly(records: Iterable[EchoRecord]) -> List[EchoRun]:
    """Collapse one probe's single-family hourly records into runs.

    ``records`` must be sorted by hour and belong to a single
    (probe, family) series; adjacent records with equal ``client_ip``
    (even across measurement gaps) belong to the same run, exactly as a
    change detector scanning the hourly series would conclude.
    """
    runs: List[EchoRun] = []
    current: Optional[dict] = None
    previous_hour: Optional[int] = None
    for record in records:
        if previous_hour is not None and record.hour <= previous_hour:
            raise ValueError(
                f"records out of order: hour {record.hour} after {previous_hour}"
            )
        if current is not None and record.client_ip == current["value"]:
            gap = record.hour - current["last"] - 1
            if gap > current["max_gap"]:
                current["max_gap"] = gap
            current["last"] = record.hour
            current["observed"] += 1
        else:
            if current is not None:
                runs.append(_close_run(current))
            current = {
                "probe_id": record.probe_id,
                "family": record.family,
                "value": record.client_ip,
                "first": record.hour,
                "last": record.hour,
                "observed": 1,
                "max_gap": 0,
            }
        previous_hour = record.hour
    if current is not None:
        runs.append(_close_run(current))
    return runs


def _close_run(state: dict) -> EchoRun:
    return EchoRun(
        probe_id=state["probe_id"],
        family=state["family"],
        value=state["value"],
        first=state["first"],
        last=state["last"],
        observed=state["observed"],
        max_gap=state["max_gap"],
    )


def merge_adjacent_equal(runs: Iterable[EchoRun]) -> Iterator[EchoRun]:
    """Merge consecutive runs with equal values into one run.

    The simulator can emit back-to-back runs of the same value when an
    intervening assignment went completely unobserved; a change detector
    reading hourly data cannot tell these apart, so the platform merges
    them before handing data to the analysis.
    """
    pending: Optional[EchoRun] = None
    for run in runs:
        if pending is not None and run.value == pending.value:
            gap = run.first - pending.last - 1
            pending = EchoRun(
                probe_id=pending.probe_id,
                family=pending.family,
                value=pending.value,
                first=pending.first,
                last=run.last,
                observed=pending.observed + run.observed,
                max_gap=max(pending.max_gap, run.max_gap, gap),
            )
        else:
            if pending is not None:
                yield pending
            pending = run
    if pending is not None:
        yield pending


__all__ = [
    "EchoRecord",
    "EchoRun",
    "RUN_FIELDS",
    "RunSeries",
    "TEST_ADDRESS",
    "is_private_v4",
    "merge_adjacent_equal",
    "runs_from_hourly",
]
