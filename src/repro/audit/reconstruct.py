"""Trace → schedule: fold the event stream back into the paper's model.

The engines emit ``txn.read``/``txn.write`` instants carrying chain
positions (:mod:`repro.obs`); this module folds that stream — live as a
tracer sink, or post-hoc from a loaded JSONL file — into per-track,
per-segment :class:`repro.model.schedules.Schedule` objects with the
observed reads-from relation pinned per read.

**Tracks** are independent: the serial engine emits on ``engine``, each
shard engine on ``shard-<domain>`` (entities are hash-partitioned, so
no conflict crosses tracks), the planners on ``driver``.  **Segments**
are the engines' own consistency units — an epoch (delimited by the
``epoch.close`` instant) or a planner batch (delimited by the
``settle.batch`` span end).  Each closes at a quiescent point, so every
attempt inside has resolved: its data ops are either *canceled* by a
matching ``txn.abort`` (matched on ``(txn, seq)`` — TxnIds repeat
across retries, the attempt sequence number does not) or *confirmed*
by a ``txn.commit``.

A read joins its writer through the chain position: positions are
allocated by one monotonic counter per track, so ``pos`` names exactly
one installed version.  A read whose position resolves to an earlier
segment maps to ``T_INIT`` — the segment's initial state, which is the
engines' base-capture rule verbatim — after checking it was served the
*newest* committed pre-segment version.  Structural violations
(:mod:`repro.audit.violations`) are attached to the segment they occur
in; certification is the :class:`repro.audit.auditor.Auditor`'s job.
"""

# repro: deterministic-contract — equal seeds must yield byte-identical output

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.model.schedules import Schedule, T_INIT
from repro.model.steps import Step, read, write
from repro.obs.tracer import END, TraceEvent
from repro.audit.violations import Violation

#: segment delimiters: the engines' quiescent points.
_EPOCH_CLOSE = "epoch.close"
_SETTLE_BATCH = "settle.batch"


@dataclass(frozen=True)
class DataOp:
    """One data operation as the trace recorded it."""

    kind: str  # "R" | "W"
    txn: str
    #: attempt sequence number (engine tracks) / plan timestamp
    #: (planner tracks); pairs with ``txn`` to name one attempt.
    seq: int | None
    entity: str
    #: chain position: the version read (reads) or installed (writes);
    #: None is the pre-trace initial version.
    pos: int | None
    #: reads only — the writer the trace claims the version came from.
    writer: str | None = None


@dataclass
class Segment:
    """One reconstructed epoch/batch on one track."""

    track: str
    index: int
    #: committed attempts' steps, in trace emission order.
    schedule: Schedule
    #: read position in ``schedule`` -> observed source transaction
    #: (``T_INIT`` for pre-segment state) — ``certify_fixed``'s pin map.
    read_sources: dict[int, str]
    #: committed transaction ids, in commit-event order — the serial
    #: order the run claims, which the auditor checks first.
    committed: tuple[str, ...]
    #: structural violations found while reconstructing this segment.
    violations: list[Violation] = field(default_factory=list)


@dataclass
class _TrackState:
    """Per-track fold state: the open segment plus the committed chain."""

    name: str
    ops: list[DataOp] = field(default_factory=list)
    #: commit events in order: (txn, seq-or-None).
    commits: list[tuple[str, int | None]] = field(default_factory=list)
    aborted: set[tuple[str, int | None]] = field(default_factory=set)
    segments: int = 0
    #: committed chain from finalized segments: pos -> (entity, txn).
    chain: dict[int, tuple[str, str]] = field(default_factory=dict)
    #: entity -> newest committed position among finalized segments.
    chain_latest: dict[str, int] = field(default_factory=dict)
    #: last committed install position (track-wide monotonicity check).
    last_pos: int | None = None


class ScheduleReconstructor:
    """Fold trace events into :class:`Segment`\\ s, live or post-hoc.

    Use as a tracer sink (``tracer.subscribe(rec.feed)``) or feed a
    loaded event list; call :meth:`finish` once to flush residual
    segments.  ``on_segment`` fires at every segment close, which is
    what makes certification *online*: the auditor judges epoch *k*
    while the run is producing epoch *k+1*.
    """

    def __init__(
        self, on_segment: Callable[[Segment], None] | None = None
    ) -> None:
        self._tracks: dict[str, _TrackState] = {}
        self._on_segment = on_segment
        self.segments: list[Segment] = []
        self.events_seen = 0
        self._finished = False

    # -- folding -----------------------------------------------------------

    def feed(self, event: TraceEvent) -> None:
        """Fold one event (the tracer-sink entry point)."""
        self.events_seen += 1
        name = event.name
        if name == "txn.read" or name == "txn.write":
            track = self._track(event.track)
            args = event.args
            track.ops.append(DataOp(
                kind="R" if name == "txn.read" else "W",
                txn=str(args.get("txn")),
                seq=args.get("seq"),
                entity=str(args.get("entity")),
                pos=args.get("pos"),
                writer=args.get("writer"),
            ))
        elif name == "txn.commit":
            track = self._track(event.track)
            track.commits.append(
                (str(event.args.get("txn")), event.args.get("seq"))
            )
        elif name == "txn.abort":
            track = self._track(event.track)
            track.aborted.add(
                (str(event.args.get("txn")), event.args.get("seq"))
            )
        elif name == _EPOCH_CLOSE or (
            name == _SETTLE_BATCH and event.ph == END
        ):
            self._close_segment(self._track(event.track))

    def finish(self) -> list[Segment]:
        """Flush residual segments; idempotent; returns all segments."""
        if not self._finished:
            self._finished = True
            for track in self._tracks.values():
                self._close_segment(track)
        return self.segments

    def _track(self, name: str) -> _TrackState:
        state = self._tracks.get(name)
        if state is None:
            state = self._tracks[name] = _TrackState(name)
        return state

    @property
    def tracks_with_data(self) -> tuple[str, ...]:
        """Tracks that carried data operations, sorted."""
        return tuple(sorted(
            t.name for t in self._tracks.values()
            if t.segments or t.ops
        ))

    # -- one segment -------------------------------------------------------

    def _close_segment(self, track: _TrackState) -> None:
        """Resolve attempts, join reads to writers, emit the Segment."""
        if not track.ops:
            # Lifecycle-only stretches (the parallel driver track, empty
            # epochs) reconstruct to nothing; drop the bookkeeping.
            track.commits.clear()
            track.aborted.clear()
            return
        ops, commits = track.ops, track.commits
        track.ops, track.commits = [], []
        aborted_attempts = track.aborted
        track.aborted = set()
        index = track.segments
        track.segments += 1
        violations: list[Violation] = []

        def flag(code: str, txn: str, detail: str) -> None:
            violations.append(
                Violation(code, track.name, index, txn, detail)
            )

        # Commit rank per attempt: engine commits carry the attempt seq,
        # planner commits only the txn (planned txns run exactly once).
        commit_rank: dict[tuple[str, int | None], int] = {}
        commit_rank_by_txn: dict[str, int] = {}
        committed_txns: list[str] = []
        for rank, (txn, seq) in enumerate(commits):
            commit_rank[(txn, seq)] = rank
            commit_rank_by_txn.setdefault(txn, rank)
            committed_txns.append(txn)

        unresolved_flagged: set[tuple[str, int | None]] = set()

        def resolve(op: DataOp) -> int | None:
            """Commit rank of the op's attempt; None when canceled."""
            key = (op.txn, op.seq)
            if key in aborted_attempts or (op.txn, None) in aborted_attempts:
                return None
            if key in commit_rank:
                return commit_rank[key]
            if (op.txn, None) in commit_rank:
                return commit_rank[(op.txn, None)]
            if op.seq is None and op.txn in commit_rank_by_txn:
                return commit_rank_by_txn[op.txn]
            if key not in unresolved_flagged:
                unresolved_flagged.add(key)
                flag(
                    "unresolved-attempt", op.txn,
                    f"data ops of attempt seq={op.seq} have no commit "
                    f"or abort by segment end",
                )
            return None

        #: positions installed by attempts that aborted in this segment.
        aborted_pos: dict[int, str] = {
            op.pos: op.txn
            for op in ops
            if op.kind == "W" and op.pos is not None and (
                (op.txn, op.seq) in aborted_attempts
                or (op.txn, None) in aborted_attempts
            )
        }

        steps: list[Step] = []
        read_sources: dict[int, str] = {}
        #: this segment's committed writes so far: pos -> (txn, entity).
        seg_writes: dict[int, tuple[str, str]] = {}
        for op in ops:
            rank = resolve(op)
            if rank is None:
                continue
            at = len(steps)
            if op.kind == "W":
                if op.pos is None:
                    flag(
                        "missing-write", op.txn,
                        f"write of {op.entity!r} carries no position",
                    )
                    continue
                if op.pos in seg_writes or op.pos in track.chain:
                    flag(
                        "duplicate-position", op.txn,
                        f"position {op.pos} of {op.entity!r} installed "
                        f"twice",
                    )
                if track.last_pos is not None and op.pos <= track.last_pos:
                    flag(
                        "chain-regression", op.txn,
                        f"position {op.pos} of {op.entity!r} not above "
                        f"the last committed install {track.last_pos}",
                    )
                track.last_pos = (
                    op.pos if track.last_pos is None
                    else max(track.last_pos, op.pos)
                )
                seg_writes[op.pos] = (op.txn, op.entity)
                steps.append(write(op.txn, op.entity))
                continue
            # -- reads: join the claimed source through the position ----
            steps.append(read(op.txn, op.entity))
            if op.pos is None:
                read_sources[at] = T_INIT
                if op.writer not in (None, T_INIT):
                    flag(
                        "read-from-mismatch", op.txn,
                        f"read of {op.entity!r} claims writer "
                        f"{op.writer!r} but sources the initial version",
                    )
                continue
            if op.pos in seg_writes:
                source = seg_writes[op.pos][0]
                read_sources[at] = source
                if op.writer != source:
                    flag(
                        "read-from-mismatch", op.txn,
                        f"read of {op.entity!r} at position {op.pos} "
                        f"claims writer {op.writer!r}, installed by "
                        f"{source!r}",
                    )
                if source != op.txn:
                    src_rank = commit_rank_by_txn.get(source)
                    my_rank = commit_rank_by_txn.get(op.txn)
                    if (
                        src_rank is not None
                        and my_rank is not None
                        and src_rank >= my_rank
                    ):
                        flag(
                            "commit-order", op.txn,
                            f"committed before its reads-from source "
                            f"{source!r} (read of {op.entity!r} at "
                            f"position {op.pos})",
                        )
                continue
            if op.pos in aborted_pos:
                flag(
                    "read-from-aborted", op.txn,
                    f"read of {op.entity!r} at position {op.pos} "
                    f"sources aborted writer {aborted_pos[op.pos]!r}",
                )
                read_sources[at] = T_INIT
                continue
            if op.pos in track.chain:
                entity, source = track.chain[op.pos]
                # Pre-segment state: the engines' base-capture rule says
                # this must be the *newest* committed version, and it
                # folds to T_INIT of the segment schedule.
                read_sources[at] = T_INIT
                if op.writer != source:
                    flag(
                        "read-from-mismatch", op.txn,
                        f"read of {op.entity!r} at position {op.pos} "
                        f"claims writer {op.writer!r}, installed by "
                        f"{source!r}",
                    )
                newest = track.chain_latest.get(op.entity)
                if newest is not None and newest != op.pos:
                    flag(
                        "stale-base-read", op.txn,
                        f"read of {op.entity!r} at position {op.pos} "
                        f"bypasses newer committed position {newest}",
                    )
                continue
            flag(
                "missing-write", op.txn,
                f"read of {op.entity!r} at position {op.pos} has no "
                f"matching committed write",
            )
            read_sources[at] = T_INIT

        # Promote this segment's committed writes into the track chain.
        for pos, (txn, entity) in seg_writes.items():
            track.chain[pos] = (entity, txn)
            newest = track.chain_latest.get(entity)
            if newest is None or pos > newest:
                track.chain_latest[entity] = pos

        seen: set[str] = set()
        committed_unique = tuple(
            t for t in committed_txns
            if not (t in seen or seen.add(t))
        )
        segment = Segment(
            track=track.name,
            index=index,
            schedule=Schedule.of(steps),
            read_sources=read_sources,
            committed=committed_unique,
            violations=violations,
        )
        self.segments.append(segment)
        if self._on_segment is not None:
            self._on_segment(segment)
