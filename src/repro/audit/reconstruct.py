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

A track buffers only its open segment's raw events.  At the delimiter
one join pass over them resolves attempts, joins every read to its
source and flags every structural violation, leaving a :class:`Joined`
— plain ``(txn, entity, source)`` tuples, no schedule.  Standalone, the
reconstructor turns each into a :class:`Segment` and keeps it; the
auditor, a subclass whose :meth:`ScheduleReconstructor._closed` judges,
keeps nothing of the segment past its verdict except the committed-chain
map.

The fold keeps all of its state per track, so a live fold needs no lock
as long as each track has one emitting thread — which every backend
guarantees (``docs/observability.md``, "Subscribers").
"""

# repro: deterministic-contract — equal seeds must yield byte-identical output

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.model.schedules import Schedule, T_INIT
from repro.model.steps import read, write
from repro.obs.tracer import END, TraceEvent
from repro.audit.violations import Violation

#: segment delimiters: the engines' quiescent points.
_EPOCH_CLOSE = "epoch.close"
_SETTLE_BATCH = "settle.batch"


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


class Joined(NamedTuple):
    """One closed segment as the join pass leaves it — no schedule yet.

    ``ops[i]`` is the step at position ``i`` of the segment's schedule:
    ``(txn, entity, source)`` with ``source`` the pinned reads-from
    transaction of a read and ``None`` for a write.
    """

    track: str
    index: int
    ops: list[tuple[str, str, str | None]]
    #: as :attr:`Segment.committed`.
    committed: tuple[str, ...]
    violations: list[Violation]
    #: how many of ``ops`` are reads.
    reads: int

    def segment(self) -> Segment:
        """The :class:`Segment` these ops spell."""
        steps = []
        read_sources: dict[int, str] = {}
        for at, (txn, entity, source) in enumerate(self.ops):
            if source is None:
                steps.append(write(txn, entity))
            else:
                steps.append(read(txn, entity))
                read_sources[at] = source
        return Segment(
            self.track, self.index, Schedule.of(steps), read_sources,
            self.committed, self.violations,
        )


@dataclass(slots=True)
class _TrackState:
    """Per-track fold state: the open segment plus the committed chain.

    Written only by the track's one emitting thread (see
    :meth:`ScheduleReconstructor.feed`), so it needs no lock.
    """

    name: str
    #: the open segment's ``txn.read``/``txn.write`` events, as emitted.
    #: Their args: ``txn``; ``seq``, the attempt sequence number (engine
    #: tracks) or plan timestamp (planner tracks), which pairs with
    #: ``txn`` to name one attempt; ``entity``; ``pos``, the chain
    #: position read or installed (None: the pre-trace initial
    #: version); and on reads ``writer``, the claimed installer.
    ops: list[TraceEvent] = field(default_factory=list)
    #: commit events in order: (txn, seq-or-None).
    commits: list[tuple[str, int | None]] = field(default_factory=list)
    aborted: set[tuple[str, int | None]] = field(default_factory=set)
    #: events folded on this track.
    events: int = 0
    #: segments closed with data ops on this track.
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
    while the run is producing epoch *k+1*.  A subclass that overrides
    :meth:`_closed` receives each segment's :class:`Joined` instead,
    and then no :class:`Segment` is built or kept.
    """

    def __init__(
        self, on_segment: Callable[[Segment], None] | None = None
    ) -> None:
        self._tracks: dict[str, _TrackState] = {}
        self._on_segment = on_segment
        #: every closed segment, in close order (empty when
        #: :meth:`_closed` is overridden).
        self.segments: list[Segment] = []
        self._finished = False

    # -- folding -----------------------------------------------------------

    def feed(self, event: TraceEvent) -> None:
        """Fold one event (the tracer-sink entry point).

        Touches only the event's own track.  A live sink runs on the
        emitting thread and each track has one emitting thread, so the
        fold takes no lock; a segment close hands its :class:`Joined`
        to :meth:`_closed`, which is where tracks meet.
        """
        track = self._tracks.get(event.track)
        if track is None:
            track = self._tracks[event.track] = _TrackState(event.track)
        track.events += 1
        name = event.name
        if name == "txn.read" or name == "txn.write":
            track.ops.append(event)
        elif name == "txn.commit":
            args = event.args
            track.commits.append((str(args.get("txn")), args.get("seq")))
        elif name == "txn.abort":
            args = event.args
            track.aborted.add((str(args.get("txn")), args.get("seq")))
        elif name == _EPOCH_CLOSE or (
            name == _SETTLE_BATCH and event.ph == END
        ):
            self._close_segment(track)

    def finish(self) -> list[Segment]:
        """Flush residual segments; idempotent; returns all segments."""
        if not self._finished:
            self._finished = True
            for track in self._tracks.values():
                self._close_segment(track)
        return self.segments

    @property
    def events_seen(self) -> int:
        """Events folded so far, over every track."""
        return sum(t.events for t in self._tracks.values())

    @property
    def closed(self) -> int:
        """Segments closed so far (stretches without data ops excluded)."""
        return sum(t.segments for t in self._tracks.values())

    @property
    def tracks_with_data(self) -> tuple[str, ...]:
        """Tracks that carried data operations, sorted."""
        return tuple(sorted(
            t.name for t in self._tracks.values()
            if t.segments or t.ops
        ))

    # -- one segment -------------------------------------------------------

    def _close_segment(self, track: _TrackState) -> None:
        """Join the open segment and hand it on (see the module doc)."""
        if not track.ops:
            # Lifecycle-only stretches (the parallel driver track, empty
            # epochs) reconstruct to nothing; drop the bookkeeping.
            track.commits.clear()
            track.aborted.clear()
            return
        self._closed(_join(track))

    def _closed(self, joined: Joined) -> None:
        """Keep one closed segment as a :class:`Segment`."""
        segment = joined.segment()
        self.segments.append(segment)
        if self._on_segment is not None:
            self._on_segment(segment)


def _join(track: _TrackState) -> Joined:
    """One pass over the open segment's events: resolve each attempt,
    join each read to its source, flag structural violations, and
    promote the committed writes into the track's chain."""
    events, commits, aborted = track.ops, track.commits, track.aborted
    track.ops, track.commits, track.aborted = [], [], set()
    index = track.segments
    track.segments += 1
    violations: list[Violation] = []

    def flag(code: str, txn: str, detail: str) -> None:
        violations.append(Violation(code, track.name, index, txn, detail))

    # Engine commits and aborts carry the attempt seq; planner commits
    # and logic aborts carry only the txn (planned txns run exactly
    # once), so they settle every attempt of the txn.  Those txns are
    # collected into sets once per segment, so a planner op resolves
    # with one lookup of its txn.  ``rank`` is a transaction's place in
    # the claimed order: its first commit event.
    committed_attempts = set(commits)
    seqless = {txn for txn, seq in commits if seq is None}
    rank: dict[str, int] = {}
    for txn, _seq in commits:
        if txn not in rank:
            rank[txn] = len(rank)
    aborted_txns = {txn for txn, seq in aborted if seq is None}

    #: positions installed by attempts that aborted in this segment.
    aborted_pos: dict[int, str] = {}
    if aborted:
        for event in events:
            if event.name == "txn.write":
                args = event.args
                txn, pos = str(args.get("txn")), args.get("pos")
                if pos is not None and (
                    txn in aborted_txns
                    or (txn, args.get("seq")) in aborted
                ):
                    aborted_pos[pos] = txn

    chain, chain_latest = track.chain, track.chain_latest
    last_pos = track.last_pos
    ops: list[tuple[str, str, str | None]] = []
    reads = 0
    #: this segment's committed writes so far: pos -> (txn, entity).
    seg_writes: dict[int, tuple[str, str]] = {}
    unresolved_flagged: set[tuple[str, int | None]] = set()
    for event in events:
        args = event.args
        txn, seq = str(args.get("txn")), args.get("seq")
        if aborted and (txn in aborted_txns or (txn, seq) in aborted):
            continue
        if not (
            txn in seqless
            or (txn, seq) in committed_attempts
            or (seq is None and txn in rank)
        ):
            if (txn, seq) not in unresolved_flagged:
                unresolved_flagged.add((txn, seq))
                flag(
                    "unresolved-attempt", txn,
                    f"data ops of attempt seq={seq} have no commit "
                    f"or abort by segment end",
                )
            continue
        entity, pos = str(args.get("entity")), args.get("pos")
        if event.name == "txn.write":
            if pos is None:
                flag(
                    "missing-write", txn,
                    f"write of {entity!r} carries no position",
                )
                continue
            if pos in seg_writes or pos in chain:
                flag(
                    "duplicate-position", txn,
                    f"position {pos} of {entity!r} installed twice",
                )
            if last_pos is not None and pos <= last_pos:
                flag(
                    "chain-regression", txn,
                    f"position {pos} of {entity!r} not above the last "
                    f"committed install {last_pos}",
                )
            last_pos = pos if last_pos is None else max(last_pos, pos)
            seg_writes[pos] = (txn, entity)
            source = None
        else:
            # -- reads: join the claimed source through the position ----
            reads += 1
            writer = args.get("writer")
            source = T_INIT
            if pos is None:
                if writer not in (None, T_INIT):
                    flag(
                        "read-from-mismatch", txn,
                        f"read of {entity!r} claims writer {writer!r} "
                        f"but sources the initial version",
                    )
            elif pos in seg_writes:
                source = seg_writes[pos][0]
                if writer != source:
                    flag(
                        "read-from-mismatch", txn,
                        f"read of {entity!r} at position {pos} claims "
                        f"writer {writer!r}, installed by {source!r}",
                    )
                if source != txn:
                    src_rank = rank.get(source)
                    if src_rank is not None and src_rank >= rank[txn]:
                        flag(
                            "commit-order", txn,
                            f"committed before its reads-from source "
                            f"{source!r} (read of {entity!r} at "
                            f"position {pos})",
                        )
            elif pos in aborted_pos:
                flag(
                    "read-from-aborted", txn,
                    f"read of {entity!r} at position {pos} sources "
                    f"aborted writer {aborted_pos[pos]!r}",
                )
            elif pos in chain:
                # Pre-segment state: the engines' base-capture rule says
                # this must be the *newest* committed version, and it
                # folds to T_INIT of the segment schedule.
                installer = chain[pos][1]
                if writer != installer:
                    flag(
                        "read-from-mismatch", txn,
                        f"read of {entity!r} at position {pos} claims "
                        f"writer {writer!r}, installed by {installer!r}",
                    )
                newest = chain_latest.get(entity)
                if newest is not None and newest != pos:
                    flag(
                        "stale-base-read", txn,
                        f"read of {entity!r} at position {pos} bypasses "
                        f"newer committed position {newest}",
                    )
            else:
                flag(
                    "missing-write", txn,
                    f"read of {entity!r} at position {pos} has no "
                    f"matching committed write",
                )
        ops.append((txn, entity, source))
    track.last_pos = last_pos

    # Promote this segment's committed writes into the track chain.
    for pos, (txn, entity) in seg_writes.items():
        chain[pos] = (entity, txn)
        newest = chain_latest.get(entity)
        if newest is None or pos > newest:
            chain_latest[entity] = pos

    return Joined(track.name, index, ops, tuple(rank), violations, reads)
