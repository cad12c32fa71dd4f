"""Incremental CDN association analysis over day-chunked triples.

Mirrors :mod:`repro.core.associations` exactly: per-/64 association runs
(a run ends when the reported /24 changes), the Figure 3 five-number
summary over run durations, and the Figure 4 degree structures.  Because
the batch scan sorts each /64's reports by ``(day, v4_key)``, streaming
triples in canonical ``(day, v4, v6)`` chunk order visits every /64's
reports in the same sequence — so the incremental state (one open run
per /64 plus degree dictionaries) reproduces the batch artifacts
bit-identically.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.associations import BoxStats, box_stats, fraction_degree_one
from repro.stream.chunks import TripleChunk

#: Version of the association engine's checkpoint payload layout.
STATE_VERSION = 1


@dataclass
class AssociationStreamResult:
    """Everything a finished association streaming pass produces."""

    durations: Counter  # duration (days) -> count
    box: Optional[BoxStats]  # None when no triples were seen
    v4_unique: Dict[int, int]  # /24 -> distinct /64s
    v4_hits: Dict[int, int]  # /24 -> total reports
    v6_degrees: Dict[int, int]  # /64 -> distinct /24s
    fraction_v6_degree_one: float
    triples_seen: int
    chunks_folded: int


class AssociationStreamEngine:
    """Foldable, checkpointable equivalent of the Section 4 analyses."""

    def __init__(self) -> None:
        self._next_chunk = 0
        self._triples_seen = 0
        # v6 -> [current v4, run start day, last day]
        self._open: Dict[int, List[int]] = {}
        self._durations: Counter = Counter()
        self._v4_unique: Dict[int, set] = {}
        self._v4_hits: Counter = Counter()
        self._v6_partners: Dict[int, set] = {}

    @property
    def next_chunk(self) -> int:
        return self._next_chunk

    @property
    def triples_seen(self) -> int:
        return self._triples_seen

    def fold_chunk(self, chunk: TripleChunk) -> None:
        """Fold one day-window of triples into the incremental state."""
        for day, v4_key, v6_key in chunk.triples:
            run = self._open.get(v6_key)
            if run is None:
                self._open[v6_key] = [v4_key, day, day]
            elif v4_key != run[0]:
                self._durations[run[2] - run[1] + 1] += 1
                run[0] = v4_key
                run[1] = day
                run[2] = day
            else:
                run[2] = day
            self._v4_unique.setdefault(v4_key, set()).add(v6_key)
            self._v4_hits[v4_key] += 1
            self._v6_partners.setdefault(v6_key, set()).add(v4_key)
        self._triples_seen += len(chunk.triples)
        self._next_chunk = chunk.index + 1

    def fold_columns(self, days, v4_keys, v6_keys, chunk_index: Optional[int] = None) -> None:
        """Vectorized fold of one day-window given as columnar arrays.

        ``v6_keys`` are packed upper-64-bit /64 keys (the triple-store
        layout); state keys stay full 128-bit ints, so the resulting
        engine state — and every downstream artifact, including
        :meth:`state_dict` snapshots compared by value — equals
        :meth:`fold_chunk` over the same window's sorted triples
        exactly.  The work per call is two packed-key sorts
        (:func:`repro.core.sortkeys.sort_rows`) plus
        per-*unique-key* (not per-row) dictionary updates: within one
        window every /64's rows sort to the same ``(day, v4)`` sequence
        the scalar fold visits, and runs of equal ``(v6, v4)`` collapse
        to segment endpoints before touching python state.
        """
        import numpy as np

        from repro.core.sortkeys import sort_rows

        n = len(days)
        if n != len(v4_keys) or n != len(v6_keys):
            raise ValueError("column arrays must have equal length")
        if chunk_index is not None:
            self._next_chunk = chunk_index + 1
        if n == 0:
            return
        days = np.asarray(days)
        v4_keys = np.asarray(v4_keys)
        v6_keys = np.asarray(v6_keys)
        rows = sort_rows(v6_keys, days, v4_keys)
        new_v6 = rows.breaks(0)
        seg_starts = np.flatnonzero(rows.breaks(0, 2))
        seg_ends = np.empty_like(seg_starts)
        seg_ends[:-1] = seg_starts[1:] - 1
        seg_ends[-1] = n - 1
        seg_v4 = rows.column(2, seg_starts)
        seg_first = rows.column(1, seg_starts).astype(np.int64)
        seg_last = rows.column(1, seg_ends).astype(np.int64)

        # Group segments by /64: the first segment of each group is where
        # new_v6 held at the segment's start row.
        group_first_seg = np.flatnonzero(new_v6[seg_starts])
        group_last_seg = np.empty_like(group_first_seg)
        group_last_seg[:-1] = group_first_seg[1:] - 1
        group_last_seg[-1] = len(seg_starts) - 1

        # Middle segments (neither first nor last of their group) close
        # unconditionally — their durations never interact with the open
        # run, so they accumulate straight into the counter.
        middle = np.ones(len(seg_starts), dtype=bool)
        middle[group_first_seg] = False
        middle[group_last_seg] = False
        if middle.any():
            mid_durations = seg_last[middle] - seg_first[middle] + 1
            values, counts = np.unique(mid_durations, return_counts=True)
            for value, count in zip(values.tolist(), counts.tolist()):
                self._durations[value] += count

        # First/last segments need the open-run state; one iteration per
        # /64 seen this window.
        group_v6 = rows.column(0, seg_starts[group_first_seg])
        del rows
        for position, v6_packed in enumerate(group_v6.tolist()):
            key = v6_packed << 64
            first_seg = group_first_seg[position]
            last_seg = group_last_seg[position]
            first_v4 = int(seg_v4[first_seg])
            start = int(seg_first[first_seg])
            run = self._open.get(key)
            if run is not None:
                if run[0] == first_v4:
                    start = run[1]  # the open run continues into this window
                else:
                    self._durations[run[2] - run[1] + 1] += 1
            if first_seg == last_seg:
                self._open[key] = [first_v4, start, int(seg_last[first_seg])]
            else:
                self._durations[int(seg_last[first_seg]) - start + 1] += 1
                self._open[key] = [
                    int(seg_v4[last_seg]),
                    int(seg_first[last_seg]),
                    int(seg_last[last_seg]),
                ]

        # Degree state: one update per distinct (v4, v6) pair and per
        # distinct v4 — again per-key, not per-row.
        pairs = sort_rows(v4_keys, v6_keys)
        pair_starts = np.flatnonzero(pairs.breaks(0, 1))
        for v4_key, v6_packed in zip(
            pairs.column(0, pair_starts).tolist(), pairs.column(1, pair_starts).tolist()
        ):
            v6_full = v6_packed << 64
            self._v4_unique.setdefault(v4_key, set()).add(v6_full)
            self._v6_partners.setdefault(v6_full, set()).add(v4_key)
        hit_keys, hit_counts = np.unique(v4_keys, return_counts=True)
        for v4_key, count in zip(hit_keys.tolist(), hit_counts.tolist()):
            self._v4_hits[v4_key] += count
        self._triples_seen += n

    def state_dict(self) -> dict:
        """Snapshot (references live containers — pickle before folding on)."""
        return {
            "state_version": STATE_VERSION,
            "next_chunk": self._next_chunk,
            "triples_seen": self._triples_seen,
            "open": {key: list(run) for key, run in self._open.items()},
            "durations": dict(self._durations),
            "v4_unique": {key: sorted(members) for key, members in self._v4_unique.items()},
            "v4_hits": dict(self._v4_hits),
            "v6_partners": {
                key: sorted(members) for key, members in self._v6_partners.items()
            },
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (checkpoint resume)."""
        version = state.get("state_version")
        if version != STATE_VERSION:
            raise ValueError(f"unsupported association state version {version!r}")
        self._next_chunk = state["next_chunk"]
        self._triples_seen = state["triples_seen"]
        self._open = {key: list(run) for key, run in state["open"].items()}
        self._durations = Counter(state["durations"])
        self._v4_unique = {key: set(members) for key, members in state["v4_unique"].items()}
        self._v4_hits = Counter(state["v4_hits"])
        self._v6_partners = {
            key: set(members) for key, members in state["v6_partners"].items()
        }

    def finalize(self, chunks_folded: int = 0) -> AssociationStreamResult:
        """Close every open run and assemble the batch-identical artifacts.

        State is left untouched, so the pass can be extended afterwards.
        """
        durations = Counter(self._durations)
        for _v4, start, last in self._open.values():
            durations[last - start + 1] += 1
        expanded: List[float] = []
        for value in sorted(durations):
            expanded.extend([float(value)] * durations[value])
        v6_degrees = {key: len(members) for key, members in self._v6_partners.items()}
        return AssociationStreamResult(
            durations=durations,
            box=box_stats(expanded) if expanded else None,
            v4_unique={key: len(members) for key, members in self._v4_unique.items()},
            v4_hits=dict(self._v4_hits),
            v6_degrees=v6_degrees,
            fraction_v6_degree_one=fraction_degree_one(v6_degrees),
            triples_seen=self._triples_seen,
            chunks_folded=chunks_folded,
        )


def run_association_stream(
    triples,
    chunk_days: int,
    stream_id: Optional[str] = None,
    store=None,
    resume: bool = False,
    checkpoint_every: int = 1,
    stop_after_chunks: Optional[int] = None,
    min_days: int = 0,
) -> Optional[AssociationStreamResult]:
    """Stream day-ordered triples through an :class:`AssociationStreamEngine`.

    Same driver contract as :func:`repro.stream.engine.run_atlas_stream`:
    checkpoints every ``checkpoint_every`` chunks when ``store`` (and a
    ``stream_id``) is given, resumes from the latest matching checkpoint,
    and returns ``None`` when ``stop_after_chunks`` aborts the pass.
    """
    from repro.stream.chunks import triple_chunks

    engine = AssociationStreamEngine()
    key = None
    if store is not None:
        if stream_id is None:
            raise ValueError("checkpointing an association stream requires stream_id")
        key = store.key("association-stream", stream_id, {"chunk_days": chunk_days})
        if resume:
            state = store.load("association-stream", key)
            if state is not None:
                engine.load_state(state)
    folded = 0
    for chunk in triple_chunks(
        triples, chunk_days, start_chunk=engine.next_chunk, min_days=min_days
    ):
        engine.fold_chunk(chunk)
        folded += 1
        at_checkpoint = (
            store is not None and checkpoint_every and folded % checkpoint_every == 0
        )
        if at_checkpoint:
            store.save("association-stream", key, engine.state_dict())
        if stop_after_chunks is not None and folded >= stop_after_chunks:
            if store is not None and not at_checkpoint:
                store.save("association-stream", key, engine.state_dict())
            return None
    result = engine.finalize(chunks_folded=folded)
    if store is not None:
        store.save("association-stream", key, engine.state_dict())
    return result


def run_association_stream_over_store(
    triple_store,
    chunk_days: int,
    store=None,
    resume: bool = False,
    checkpoint_every: int = 1,
    stop_after_chunks: Optional[int] = None,
    min_days: int = 0,
) -> Optional[AssociationStreamResult]:
    """Out-of-core :func:`run_association_stream` over a sharded triple store.

    Day windows are gathered straight off the memmapped shards
    (:meth:`repro.store.TripleStore.day_window_columns`) and folded with
    the vectorized :meth:`AssociationStreamEngine.fold_columns`, so
    neither the triples nor any per-row python objects ever materialize.
    The window schedule matches :func:`repro.stream.chunks.triple_chunks`
    — ``[k*chunk_days, (k+1)*chunk_days)``, empty windows included — so
    results and resume points line up with the CSV path exactly.
    Checkpoint identity comes from the store's content digest.
    """
    if chunk_days < 1:
        raise ValueError("chunk_days must be >= 1")
    engine = AssociationStreamEngine()
    key = None
    if store is not None:
        key = store.key(
            "association-stream",
            triple_store.digest(),
            {"chunk_days": chunk_days},
        )
        if resume:
            state = store.load("association-stream", key)
            if state is not None:
                engine.load_state(state)
    last_day = triple_store.day_max if triple_store.day_max is not None else 0
    min_chunks = max(1, -(-min_days // chunk_days)) if min_days else 1
    total_chunks = max(last_day // chunk_days + 1, min_chunks)
    folded = 0
    for index in range(engine.next_chunk, total_chunks):
        lo = index * chunk_days
        days, v4_keys, v6_keys = triple_store.day_window_columns(lo, lo + chunk_days)
        engine.fold_columns(days, v4_keys, v6_keys, chunk_index=index)
        folded += 1
        at_checkpoint = (
            store is not None and checkpoint_every and folded % checkpoint_every == 0
        )
        if at_checkpoint:
            store.save("association-stream", key, engine.state_dict())
        if stop_after_chunks is not None and folded >= stop_after_chunks:
            if store is not None and not at_checkpoint:
                store.save("association-stream", key, engine.state_dict())
            return None
    result = engine.finalize(chunks_folded=folded)
    if store is not None:
        store.save("association-stream", key, engine.state_dict())
    return result


__all__ = [
    "STATE_VERSION",
    "AssociationStreamEngine",
    "AssociationStreamResult",
    "run_association_stream",
    "run_association_stream_over_store",
]
