"""The Appendix A.1 data-sanitization pipeline.

Given raw per-probe echo data (:class:`~repro.atlas.platform.ProbeData`)
and a routing table, :func:`sanitize` applies, in order:

1. **Test-address removal** — drop all runs reporting 193.0.0.78, the
   RIPE NCC address probes carry before being shipped to volunteers.
2. **Unrouted removal** — drop runs whose value has no origin AS.
3. **Bad-tag filter** — drop probes tagged ``multihomed``,
   ``datacentre``, ``core`` or ``system-anchor``.
4. **Atypical-NAT filter** — drop probes whose IPv4 ``src_addr`` is
   public, or whose IPv6 ``src_addr`` differs from the echoed address.
5. **Multihoming filter** — drop probes whose reported values or origin
   ASes *alternate* (value at run *i* equals the value at run *i − 2*,
   or the AS sequence revisits an earlier AS).
6. **Virtual-probe splitting** — probes that switch AS once and never
   return (owner changed ISP) are split into one virtual probe per AS.
7. **Short-duration filter** — (virtual) probes observed for less than
   a month are dropped.

The output is a list of :class:`SanitizedProbe` plus a
:class:`SanitizationReport` with per-filter counts.

Two engines run the cascade, chosen with
:func:`repro.core.engine.resolve_engine` as the collection is:

* ``"fused"`` works on run columns.  Each probe's runs are a
  :class:`~repro.atlas.echo.RunSeries` (lists are packed by
  :meth:`RunSeries.from_runs`), concatenated into one CSR population per
  family.  One interval-index lookup per family gives every run's
  origin AS; stripping, reversion counts, AS sequences, alternation and
  the virtual-probe cuts are array operations over that population.
  Each survivor's runs are ``RunSeries`` slices of the stripped
  population, which :func:`repro.core.analysis_np.columns_from_runs`
  concatenates without building a run.
* ``"py"`` is the per-run reference loop over ``EchoRun`` objects and
  routing-table lookups; survivors hold ``EchoRun`` lists.

Both give equal survivors and reports;
:func:`repro.perf.verify.sanitize_diffs` checks that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.atlas.echo import RUN_FIELDS, TEST_ADDRESS, EchoRun, RunSeries
from repro.atlas.platform import ProbeData
from repro.bgp.table import RoutingTable
from repro.core import analysis_np as _anp
from repro.core.engine import resolve_engine
from repro.core.sortkeys import sort_rows
from repro.obs import get_logger, metric_inc, span, telemetry_enabled

_log = get_logger("atlas.sanitize")

#: Minimum observed span (hours) for a probe to be usable (one month).
MIN_SPAN_HOURS = 30 * 24

#: Number of value reversions (run i equals run i-2) that flags a probe
#: as multihomed.
REVERSION_THRESHOLD = 2


@dataclass
class SanitizedProbe:
    """One (possibly virtual) probe that survived sanitization.

    The ``fused`` engine stores :class:`~repro.atlas.echo.RunSeries`
    slices, the ``py`` reference ``EchoRun`` lists; both compare equal.
    """

    probe_id: str  # "1234" or "1234#2" for the 2nd virtual probe
    asn: int
    dual_stack: bool
    v4_runs: Sequence[EchoRun]
    v6_runs: Sequence[EchoRun]

    @property
    def v4_span(self) -> int:
        return _span(self.v4_runs)

    @property
    def v6_span(self) -> int:
        return _span(self.v6_runs)


@dataclass
class SanitizationReport:
    """Why probes (or records) were removed."""

    input_probes: int = 0
    kept_probes: int = 0
    virtual_probes_created: int = 0
    dropped_bad_tag: int = 0
    dropped_atypical_nat: int = 0
    dropped_multihomed: int = 0
    dropped_short: int = 0
    test_address_runs_removed: int = 0
    unrouted_runs_removed: int = 0
    notes: List[str] = field(default_factory=list)


def _span(runs: Sequence[EchoRun]) -> int:
    if not runs:
        return 0
    return runs[-1].last - runs[0].first + 1


def _count_reversions(runs: Sequence[EchoRun]) -> int:
    return sum(
        1
        for index in range(2, len(runs))
        if runs[index].value == runs[index - 2].value
        and runs[index].value != runs[index - 1].value
    )


def _as_sequence(
    runs: Sequence[EchoRun], table: RoutingTable
) -> List[Tuple[int, int]]:
    """Collapsed (asn, first_hour) sequence of the probe's runs."""
    sequence: List[Tuple[int, int]] = []
    for run in runs:
        asn = table.origin_asn(run.value)
        if asn is None:
            continue
        if not sequence or sequence[-1][0] != asn:
            sequence.append((asn, run.first))
    return sequence


def _alternates(sequence: Sequence[Tuple[int, int]]) -> bool:
    """True when an AS appears, disappears, and reappears."""
    seen = set()
    previous: Optional[int] = None
    for asn, _first in sequence:
        if asn in seen and asn != previous:
            return True
        seen.add(asn)
        previous = asn
    return False


def _strip_runs(
    runs: Sequence[EchoRun], table: RoutingTable, report: SanitizationReport
) -> List[EchoRun]:
    kept: List[EchoRun] = []
    for run in runs:
        if run.value == TEST_ADDRESS:
            report.test_address_runs_removed += 1
            continue
        if table.origin_asn(run.value) is None:
            report.unrouted_runs_removed += 1
            continue
        kept.append(run)
    return kept


def _split_hours(
    v4_sequence: Sequence[Tuple[int, int]], v6_sequence: Sequence[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """Boundaries where the probe moved AS, merged across both families.

    Returns a list of ``(asn, start_hour)`` entries sorted by hour, with
    consecutive duplicates collapsed.
    """
    merged = sorted(list(v4_sequence) + list(v6_sequence), key=lambda item: item[1])
    collapsed: List[Tuple[int, int]] = []
    for asn, first in merged:
        if not collapsed or collapsed[-1][0] != asn:
            collapsed.append((asn, first))
    return collapsed


def sanitize(
    probes: Sequence[ProbeData],
    table: RoutingTable,
    min_span_hours: int = MIN_SPAN_HOURS,
    reversion_threshold: int = REVERSION_THRESHOLD,
    engine: Optional[str] = None,
) -> Tuple[List[SanitizedProbe], SanitizationReport]:
    """Run the full Appendix A.1 pipeline; see the module docstring.

    ``engine`` is ``"fused"`` (the default; ``None`` reads
    ``$REPRO_ANALYSIS_ENGINE``) or the ``"py"`` reference.
    """
    resolved = resolve_engine(engine)
    cascade = _sanitize_columns if resolved == "fused" else _sanitize
    with span("collection/sanitize", probes=len(probes), engine=resolved):
        report = SanitizationReport(input_probes=len(probes))
        survivors = cascade(probes, table, min_span_hours, reversion_threshold, report)
    report.kept_probes = len(survivors)
    if telemetry_enabled():
        metric_inc("sanitize.probes_input", report.input_probes)
        metric_inc("sanitize.probes_kept", report.kept_probes)
        metric_inc("sanitize.virtual_probes", report.virtual_probes_created)
        for reason in ("bad_tag", "atypical_nat", "multihomed", "short"):
            dropped = getattr(report, f"dropped_{reason}")
            if dropped:
                metric_inc("sanitize.probes_dropped", dropped, reason=reason)
        if report.test_address_runs_removed:
            metric_inc(
                "sanitize.runs_removed",
                report.test_address_runs_removed,
                reason="test_address",
            )
        if report.unrouted_runs_removed:
            metric_inc(
                "sanitize.runs_removed", report.unrouted_runs_removed, reason="unrouted"
            )
    _log.info(
        "probes sanitized",
        extra={
            "input": report.input_probes,
            "kept": report.kept_probes,
            "virtual": report.virtual_probes_created,
            "bad_tag": report.dropped_bad_tag,
            "atypical_nat": report.dropped_atypical_nat,
            "multihomed": report.dropped_multihomed,
            "short": report.dropped_short,
            "runs_removed": report.test_address_runs_removed
            + report.unrouted_runs_removed,
        },
    )
    return survivors, report


def _sanitize(
    probes: Sequence[ProbeData],
    table: RoutingTable,
    min_span_hours: int,
    reversion_threshold: int,
    report: SanitizationReport,
) -> List[SanitizedProbe]:
    """The per-run reference cascade (counts accumulate on ``report``)."""
    survivors: List[SanitizedProbe] = []

    for data in probes:
        if data.probe.has_bad_tag:
            report.dropped_bad_tag += 1
            continue
        if data.v4_src_public or data.v6_src_mismatch:
            report.dropped_atypical_nat += 1
            continue

        v4_runs = _strip_runs(data.v4_runs, table, report)
        v6_runs = _strip_runs(data.v6_runs, table, report)

        if (
            _count_reversions(v4_runs) >= reversion_threshold
            or _count_reversions(v6_runs) >= reversion_threshold
        ):
            report.dropped_multihomed += 1
            continue

        v4_sequence = _as_sequence(v4_runs, table)
        v6_sequence = _as_sequence(v6_runs, table)
        if _alternates(v4_sequence) or _alternates(v6_sequence):
            report.dropped_multihomed += 1
            continue

        segments = _split_hours(v4_sequence, v6_sequence)
        if _alternates(segments):
            report.dropped_multihomed += 1
            continue

        pieces = _cut_into_virtual_probes(data, v4_runs, v6_runs, segments)
        if len(pieces) > 1:
            report.virtual_probes_created += len(pieces)
        for probe_id, asn, piece_v4, piece_v6 in pieces:
            if max(_span(piece_v4), _span(piece_v6)) < min_span_hours:
                report.dropped_short += 1
                continue
            dual_stack = _span(piece_v6) >= min_span_hours and _span(piece_v4) >= min_span_hours
            survivors.append(
                SanitizedProbe(
                    probe_id=probe_id,
                    asn=asn,
                    dual_stack=dual_stack,
                    v4_runs=piece_v4,
                    v6_runs=piece_v6,
                )
            )

    return survivors


class _FamilyRuns:
    """One family's stripped runs of the eligible probes, CSR-packed.

    Probe ``p``'s surviving runs are flat rows ``offsets[p]:offsets[p + 1]``
    of ``columns`` (the :data:`~repro.atlas.echo.RUN_FIELDS` arrays);
    ``asn`` is each row's origin AS.  Building it strips test-address
    and unrouted runs and adds their counts to ``report``.
    """

    def __init__(
        self,
        family: int,
        series: Sequence[RunSeries],
        index: "_anp._RouteIntervalIndex",
        report: SanitizationReport,
    ) -> None:
        self.family = family
        self.n_probes = len(series)
        counts = np.fromiter(map(len, series), dtype=np.int64, count=self.n_probes)
        probe = np.repeat(np.arange(self.n_probes, dtype=np.int64), counts)
        columns = {
            name: np.concatenate([getattr(runs, name) for runs in series])
            for name, _ in RUN_FIELDS
        }
        if family == 4:
            if np.any(columns["value_hi"]):
                raise ValueError("IPv4 run values must have value_hi == 0")
            asn = index.origin_asns(columns["value_lo"])
            test = columns["value_lo"] == np.uint64(int(TEST_ADDRESS))
        else:
            asn = index.origin_asns(columns["value_hi"])
            test = np.zeros(len(asn), dtype=bool)
        unrouted = (asn == 0) & ~test
        report.test_address_runs_removed += int(np.count_nonzero(test))
        report.unrouted_runs_removed += int(np.count_nonzero(unrouted))
        drop = test | unrouted
        if drop.any():
            keep = ~drop
            columns = {name: column[keep] for name, column in columns.items()}
            probe, asn = probe[keep], asn[keep]
        first = columns["first"]
        disorder = np.flatnonzero((probe[1:] == probe[:-1]) & (first[1:] < first[:-1]))
        if len(disorder):
            raise ValueError(
                f"IPv{family} runs of probe {series[int(probe[disorder[0]])].probe_id} "
                "are not in time order"
            )
        self.columns = columns
        self.probe = probe
        self.asn = asn
        self.offsets = np.zeros(self.n_probes + 1, dtype=np.int64)
        np.cumsum(np.bincount(probe, minlength=self.n_probes), out=self.offsets[1:])

    def reversions(self) -> np.ndarray:
        """Per-probe count of runs equal to the run two back but not the one before."""
        hi, lo, probe = self.columns["value_hi"], self.columns["value_lo"], self.probe
        same_previous = (hi[1:] == hi[:-1]) & (lo[1:] == lo[:-1])
        back_two = (hi[2:] == hi[:-2]) & (lo[2:] == lo[:-2]) & (probe[2:] == probe[:-2])
        reverted = back_two & ~same_previous[1:]
        return np.bincount(probe[2:][reverted], minlength=self.n_probes)

    def as_sequence(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(probe, asn, first)`` of each entry of every probe's collapsed
        AS sequence (reference: :func:`_as_sequence`)."""
        probe, asn = self.probe, self.asn
        starts = np.ones(len(probe), dtype=bool)
        starts[1:] = (asn[1:] != asn[:-1]) | (probe[1:] != probe[:-1])
        return probe[starts], asn[starts], self.columns["first"][starts]

    def cuts(self, probe: int, boundaries: Sequence[int]) -> List[int]:
        """Row offsets cutting probe ``probe``'s runs at ``boundaries`` hours.

        Piece ``j`` is rows ``cuts[j]:cuts[j + 1]``: the runs starting at
        or after boundary ``j - 1`` and before boundary ``j``.
        """
        start, end = int(self.offsets[probe]), int(self.offsets[probe + 1])
        if not boundaries:
            return [start, end]
        inner = np.searchsorted(self.columns["first"][start:end], boundaries) + start
        return [start, *inner.tolist(), end]

    def series(self, probe_id: int, start: int, end: int) -> RunSeries:
        """Rows ``start:end`` as a :class:`RunSeries` of ``probe_id``."""
        return RunSeries(
            probe_id,
            self.family,
            *(self.columns[name][start:end] for name, _ in RUN_FIELDS),
        )


def _revisits(n_probes: int, probe: np.ndarray, asn: np.ndarray) -> np.ndarray:
    """Per-probe :func:`_alternates` of collapsed sequences, given as
    ``(probe, asn)`` entries: an AS that occurs twice was revisited."""
    rows = sort_rows(probe, asn)
    pairs = rows.column(0, np.flatnonzero(rows.breaks(0, 1)))
    return np.bincount(pairs, minlength=n_probes) < np.bincount(probe, minlength=n_probes)


def _sanitize_columns(
    probes: Sequence[ProbeData],
    table: RoutingTable,
    min_span_hours: int,
    reversion_threshold: int,
    report: SanitizationReport,
) -> List[SanitizedProbe]:
    """The cascade over run columns; equal to :func:`_sanitize`."""
    eligible: List[ProbeData] = []
    for data in probes:
        if data.probe.has_bad_tag:
            report.dropped_bad_tag += 1
        elif data.v4_src_public or data.v6_src_mismatch:
            report.dropped_atypical_nat += 1
        else:
            eligible.append(data)
    if not eligible:
        return []
    n_probes = len(eligible)
    families: Dict[int, _FamilyRuns] = {}
    for family in (4, 6):
        series = [
            RunSeries.from_runs(
                data.v4_runs if family == 4 else data.v6_runs, data.probe.probe_id, family
            )
            for data in eligible
        ]
        index = _anp._route_interval_index(table, family)
        families[family] = _FamilyRuns(family, series, index, report)
    v4, v6 = families[4], families[6]

    multihomed = (v4.reversions() >= reversion_threshold) | (
        v6.reversions() >= reversion_threshold
    )
    sequences = [v4.as_sequence(), v6.as_sequence()]
    for probe, asn, _first in sequences:
        multihomed |= _revisits(n_probes, probe, asn)
    # Merge both families' sequences by hour and collapse repeats into
    # the probe's AS segments.  The entry position breaks ties, so the
    # order is stable: IPv4 entries (concatenated first) lead on an hour.
    probe, asn, first = (np.concatenate(parts) for parts in zip(*sequences))
    order = sort_rows(probe, first, np.arange(len(probe))).column(2)
    probe, asn, first = probe[order], asn[order], first[order]
    starts = np.ones(len(probe), dtype=bool)
    starts[1:] = (asn[1:] != asn[:-1]) | (probe[1:] != probe[:-1])
    probe, asn, first = probe[starts], asn[starts], first[starts]
    multihomed |= _revisits(n_probes, probe, asn)
    report.dropped_multihomed += int(np.count_nonzero(multihomed))

    segment_offsets = np.zeros(n_probes + 1, dtype=np.int64)
    np.cumsum(np.bincount(probe, minlength=n_probes), out=segment_offsets[1:])
    segment_offsets = segment_offsets.tolist()
    segment_asn, segment_first = asn.tolist(), first.tolist()
    spans = {
        family: (runs.columns["first"].tolist(), runs.columns["last"].tolist())
        for family, runs in families.items()
    }

    def span_of(family: int, start: int, end: int) -> int:
        firsts, lasts = spans[family]
        return lasts[end - 1] - firsts[start] + 1 if end > start else 0

    survivors: List[SanitizedProbe] = []
    for index in np.flatnonzero(~multihomed).tolist():
        low, high = segment_offsets[index], segment_offsets[index + 1]
        pieces = high - low
        if not pieces:
            continue
        probe_id = eligible[index].probe.probe_id
        boundaries = segment_first[low + 1 : high]
        cuts4, cuts6 = v4.cuts(index, boundaries), v6.cuts(index, boundaries)
        if pieces > 1:
            report.virtual_probes_created += pieces
        for piece in range(pieces):
            span4 = span_of(4, cuts4[piece], cuts4[piece + 1])
            span6 = span_of(6, cuts6[piece], cuts6[piece + 1])
            if max(span4, span6) < min_span_hours:
                report.dropped_short += 1
                continue
            survivors.append(
                SanitizedProbe(
                    probe_id=str(probe_id) if pieces == 1 else f"{probe_id}#{piece}",
                    asn=segment_asn[low + piece],
                    dual_stack=span6 >= min_span_hours and span4 >= min_span_hours,
                    v4_runs=v4.series(probe_id, cuts4[piece], cuts4[piece + 1]),
                    v6_runs=v6.series(probe_id, cuts6[piece], cuts6[piece + 1]),
                )
            )
    return survivors


def _cut_into_virtual_probes(
    data: ProbeData,
    v4_runs: List[EchoRun],
    v6_runs: List[EchoRun],
    segments: List[Tuple[int, int]],
) -> List[Tuple[str, int, List[EchoRun], List[EchoRun]]]:
    """One (id, asn, v4, v6) tuple per AS segment of the probe's life."""
    if not segments:
        return []
    if len(segments) == 1:
        return [(str(data.probe.probe_id), segments[0][0], v4_runs, v6_runs)]
    pieces = []
    boundaries = [first for _asn, first in segments[1:]] + [None]
    start: Optional[int] = None
    for index, ((asn, _first), end) in enumerate(zip(segments, boundaries)):
        piece_v4 = [run for run in v4_runs if _in_piece(run, start, end)]
        piece_v6 = [run for run in v6_runs if _in_piece(run, start, end)]
        pieces.append((f"{data.probe.probe_id}#{index}", asn, piece_v4, piece_v6))
        start = end
    return pieces


def _in_piece(run: EchoRun, start: Optional[int], end: Optional[int]) -> bool:
    if start is not None and run.first < start:
        return False
    if end is not None and run.first >= end:
        return False
    return True


__all__ = [
    "MIN_SPAN_HOURS",
    "REVERSION_THRESHOLD",
    "SanitizationReport",
    "SanitizedProbe",
    "sanitize",
]
