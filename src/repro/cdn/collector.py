"""The RUM collector: gathers association triples and applies pre-processing.

Mirrors Section 4.1: raw associations are collected per population,
then any association whose IPv4 and IPv6 sides resolve to different
origin ASNs is discarded (multi-homed hosts, cellular/WiFi switchers).
The resulting :class:`CdnDataset` groups clean triples by origin AS and
carries the classifier for downstream mobile/fixed and registry splits.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.bgp.registry import AccessKind, RIR, Registry
from repro.bgp.table import RoutingTable
from repro.cdn.classify import PrefixClassifier
from repro.core.associations import Triple
from repro.core.associations_np import TripleColumns
from repro.perf.parallel import map_streamed


@dataclass
class CdnDataset:
    """Clean association triples grouped by origin AS.

    Each AS's triples are one :class:`~repro.core.associations_np.TripleColumns`
    (read-only ``days``/``v4``/``v6`` arrays, built once at collection),
    so the columnar kernels take them without a conversion, while the
    pure-Python reference iterates them as ``(day, v4_key, v6_key)``
    tuples.  The queries below concatenate arrays and never copy tuples.
    """

    triples_by_asn: Dict[int, TripleColumns] = field(default_factory=dict)
    classifier: Optional[PrefixClassifier] = None
    total_collected: int = 0
    discarded_asn_mismatch: int = 0

    @property
    def total_kept(self) -> int:
        return sum(len(triples) for triples in self.triples_by_asn.values())

    def all_triples(self) -> TripleColumns:
        """Every kept triple across all ASes, in per-AS insertion order."""
        return TripleColumns.concat(self.triples_by_asn.values())

    def iter_triples(self) -> Iterator[Triple]:
        """Lazily yield every kept triple, in per-AS insertion order.

        Same sequence as :meth:`all_triples` as tuples, one AS at a
        time — the feed for tuple sinks such as the CSV writer.
        """
        for triples in self.triples_by_asn.values():
            yield from triples

    def triples_for(self, asn: int) -> TripleColumns:
        """Kept triples whose origin AS is ``asn`` (empty when absent)."""
        triples = self.triples_by_asn.get(asn)
        return TripleColumns.concat([]) if triples is None else triples

    def triples_by_kind(self, kind: AccessKind) -> TripleColumns:
        """All triples from ASes of the given access kind."""
        if self.classifier is None:
            raise ValueError("dataset has no classifier attached")
        return TripleColumns.concat(
            triples
            for asn, triples in self.triples_by_asn.items()
            if self.classifier.kind_of_asn(asn) is kind
        )

    def triples_by_rir(self, rir: RIR, kind: Optional[AccessKind] = None) -> TripleColumns:
        """Triples whose /64 is delegated by the given RIR (and kind)."""
        if self.classifier is None:
            raise ValueError("dataset has no classifier attached")
        parts = []
        for asn, triples in self.triples_by_asn.items():
            if kind is not None and self.classifier.kind_of_asn(asn) is not kind:
                continue
            if not triples:
                continue
            sample_v6 = int(triples.v6[0]) << 64
            if self.classifier.rir_of_v6_key(sample_v6) is rir:
                parts.append(triples)
        return TripleColumns.concat(parts)

    def unique_v6_keys(self, asn: Optional[int] = None) -> set:
        """Distinct /64 keys (full 128-bit ints), optionally of one AS."""
        triples = self.triples_by_asn[asn] if asn is not None else self.all_triples()
        return {key << 64 for key in np.unique(triples.v6).tolist()}


def collect(
    populations: Sequence,
    table: RoutingTable,
    registry: Registry,
    filter_asn_mismatch: bool = True,
) -> CdnDataset:
    """Gather triples from populations and apply the ASN-mismatch filter.

    Each population must expose ``triples() -> Iterable[Triple]``.
    With ``filter_asn_mismatch=False`` the raw stream is grouped by the
    *v6* side's origin AS instead — the ablation configuration showing
    the spurious associations the filter exists to remove.
    """
    return _classified(
        populations, PrefixClassifier(table, registry), filter_asn_mismatch
    )


def _classified(
    populations: Sequence, classifier: PrefixClassifier, filter_asn_mismatch: bool
) -> CdnDataset:
    """:func:`collect` with the classifier already built."""
    dataset = CdnDataset(classifier=classifier)
    grouped: Dict[int, List[Triple]] = defaultdict(list)
    for population in populations:
        for triple in population.triples():
            dataset.total_collected += 1
            _day, v4_key, v6_key = triple
            asn_v6 = classifier.asn_of_v6_key(v6_key)
            if asn_v6 is None:
                dataset.discarded_asn_mismatch += 1
                continue
            if filter_asn_mismatch and classifier.asn_of_v4_key(v4_key) != asn_v6:
                dataset.discarded_asn_mismatch += 1
                continue
            grouped[asn_v6].append(triple)
    dataset.triples_by_asn = {
        asn: TripleColumns.from_triples(triples) for asn, triples in grouped.items()
    }
    return dataset


def merge_datasets(datasets: Iterable[CdnDataset]) -> CdnDataset:
    """Combine datasets collected in batches (keeps the first classifier)."""
    merged = CdnDataset()
    grouped: Dict[int, List[TripleColumns]] = defaultdict(list)
    for dataset in datasets:
        if merged.classifier is None:
            merged.classifier = dataset.classifier
        merged.total_collected += dataset.total_collected
        merged.discarded_asn_mismatch += dataset.discarded_asn_mismatch
        for asn, triples in dataset.triples_by_asn.items():
            grouped[asn].append(triples)
    merged.triples_by_asn = {
        asn: TripleColumns.concat(parts) for asn, parts in grouped.items()
    }
    return merged


def _collect_population(
    classifier: PrefixClassifier, population, filter_asn_mismatch: bool
) -> CdnDataset:
    """One population's dataset, classified by the shared ``classifier``.

    The classifier is detached from the result: in a pool worker it
    only holds lookup caches over worker-side copies of the table and
    registry, so it is not shipped back.
    """
    dataset = _classified([population], classifier, filter_asn_mismatch)
    dataset.classifier = None
    return dataset


def collect_associations(
    populations: Sequence,
    table: RoutingTable,
    registry: Registry,
    filter_asn_mismatch: bool = True,
    workers: Optional[int] = 1,
) -> CdnDataset:
    """Parallel-aware :func:`collect`: one batch per population.

    Each population's triples are generated and classified on their own
    — in a process pool when ``workers > 1``
    (:func:`repro.perf.parallel.map_streamed`, which ships the
    classifier once per worker) — then merged in population order.
    That yields the exact per-AS triple columns of a single
    :func:`collect` pass, which appends population by population.
    """
    classifier = PrefixClassifier(table, registry)
    task = partial(_collect_population, filter_asn_mismatch=filter_asn_mismatch)
    merged = merge_datasets(
        map_streamed(
            task, populations, workers=workers, kind="cdn_collect", shared=classifier
        )
    )
    merged.classifier = classifier
    return merged


__all__ = ["CdnDataset", "collect", "collect_associations", "merge_datasets"]
