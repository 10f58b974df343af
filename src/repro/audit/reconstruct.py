"""Trace → schedule: fold the event stream back into the paper's model.

Each committed transaction's ``txn.commit`` record carries its data
steps (:mod:`repro.obs`): in step order, ``(entity, pos)`` per write and
``(entity, pos, writer)`` per read, ``pos`` a chain position.  This
module folds that stream — live as a tracer sink, or post-hoc from a
loaded JSONL file — into per-track, per-segment
:class:`repro.model.schedules.Schedule` objects with the observed
reads-from relation pinned per read.  An aborted attempt leaves no data,
only the positions it installed on its ``txn.abort`` record, so a
committed read of one of them is caught.  A trace of per-step
``txn.read``/``txn.write`` events, as written before commits carried
the data, is refused with ``ValueError``.

**Tracks** are independent: the serial engine emits on ``engine``, each
shard engine on ``shard-<domain>`` (entities are hash-partitioned, so
no conflict crosses tracks), the planners on ``driver``.  **Segments**
are the engines' own consistency units — an epoch (delimited by the
``epoch.close`` instant) or a planner batch (delimited by the
``settle.batch`` span end).  Each closes at a quiescent point, so every
transaction of a segment has committed or aborted inside it.

A read joins its writer through the chain position: positions are
allocated by one monotonic counter per track, so ``pos`` names exactly
one installed version.  A read whose position resolves to an earlier
segment maps to ``T_INIT`` — the segment's initial state, which is the
engines' base-capture rule verbatim — after checking it was served the
*newest* committed pre-segment version.  Structural violations
(:mod:`repro.audit.violations`) are attached to the segment they occur
in; certification is the :class:`repro.audit.auditor.Auditor`'s job.

A track buffers only its open segment's commit records.  At the
delimiter one join indexes their writes, joins every read to its source
and flags every structural violation, leaving a :class:`Joined` — plain
``(txn, entity, source)`` tuples in commit order, no schedule.
Standalone, the reconstructor turns each into a :class:`Segment` and
keeps it; the auditor, a subclass whose
:meth:`ScheduleReconstructor._closed` judges, keeps nothing of the
segment past its verdict except the committed-chain map.

The fold keeps all of its state per track, and a live fold sees the
events one at a time, in emit order (``docs/observability.md``,
"Subscribers").
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
#: per-step data events of traces written before commits carried data.
_RETIRED = frozenset({"txn.read", "txn.write"})


@dataclass
class Segment:
    """One reconstructed epoch/batch on one track."""

    track: str
    index: int
    #: committed transactions' steps, in commit order and each
    #: transaction's in step order.
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

    Written only by :meth:`ScheduleReconstructor.feed` for events of
    this track.
    """

    name: str
    #: the open segment's commit records that carry data steps, in
    #: order: ``(txn, ops)`` with ``ops`` the record's data steps in
    #: step order — ``(entity, pos)`` per write, ``(entity, pos,
    #: writer)`` per read (lists once read back from JSONL); ``pos`` is
    #: the chain position installed or read (None: the pre-trace initial
    #: version), ``writer`` the claimed installer.
    commits: list[tuple[str, list]] = field(default_factory=list)
    #: positions the open segment's aborted attempts installed -> txn.
    aborted: dict[int, str] = field(default_factory=dict)
    #: events folded on this track.
    events: int = 0
    #: segments closed with data ops on this track.
    segments: int = 0
    #: committed chain from finalized segments: pos -> (entity, txn).
    chain: dict[int, tuple[str, str]] = field(default_factory=dict)
    #: entity -> newest committed position among finalized segments.
    chain_latest: dict[str, int] = field(default_factory=dict)
    #: highest committed install position among finalized segments.
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

        Touches only the event's own track; a segment close hands its
        :class:`Joined` to :meth:`_closed`, which is where tracks
        meet.
        """
        track = self._tracks.get(event.track)
        if track is None:
            track = self._tracks[event.track] = _TrackState(event.track)
        track.events += 1
        name = event.name
        if name == "txn.commit":
            # A commit without data steps (the parallel driver track's)
            # reconstructs to nothing: keep none, so a live fold of a
            # track no delimiter closes stays empty.
            ops = event.args.get("ops")
            if ops:
                track.commits.append((str(event.args.get("txn")), ops))
        elif name == _EPOCH_CLOSE or (
            name == _SETTLE_BATCH and event.ph == END
        ):
            self._close_segment(track)
        elif name == "txn.abort":
            installed = event.args.get("installed")
            if installed:
                txn = str(event.args.get("txn"))
                for pos in installed:
                    track.aborted[pos] = txn
        elif name in _RETIRED:
            # Such a trace carries its data outside the commits, where
            # this fold no longer looks: read on, it would certify an
            # empty schedule.
            raise ValueError(
                f"trace predates commit-carried data: {name!r} event on "
                f"track {event.track!r}; re-record it with this version"
            )

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
            if t.segments or t.commits
        ))

    # -- one segment -------------------------------------------------------

    def _close_segment(self, track: _TrackState) -> None:
        """Join the open segment and hand it on (see the module doc)."""
        if not track.commits:
            # Lifecycle-only stretches (the parallel driver track, empty
            # epochs) reconstruct to nothing; drop the bookkeeping.
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
    """Join the open segment's commits: index their writes, join each
    read to its source, flag structural violations, and promote the
    committed writes into the track's chain."""
    commits, aborted_pos = track.commits, track.aborted
    track.commits, track.aborted = [], {}
    index = track.segments
    track.segments += 1
    violations: list[Violation] = []

    def flag(code: str, txn: str, detail: str) -> None:
        violations.append(Violation(code, track.name, index, txn, detail))

    # ``rank`` is a transaction's place in the claimed order: its first
    # commit record.
    rank: dict[str, int] = {}
    for txn, _ops in commits:
        if txn not in rank:
            rank[txn] = len(rank)

    # Every committed write is indexed before any read joins: a forged
    # reader committed before its source must still find the source,
    # and be flagged for the order.
    chain, chain_latest = track.chain, track.chain_latest
    last_pos = track.last_pos
    #: this segment's committed writes: pos -> (txn, entity).
    seg_writes: dict[int, tuple[str, str]] = {}
    for txn, txn_ops in commits:
        for op in txn_ops:
            if len(op) != 2:
                continue
            entity, pos = op
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
                # Installs are monotone across segments only: within
                # one, commit order is not install order.
                flag(
                    "chain-regression", txn,
                    f"position {pos} of {entity!r} not above the last "
                    f"committed install {last_pos} of an earlier segment",
                )
            seg_writes[pos] = (txn, entity)

    ops: list[tuple[str, str, str | None]] = []
    reads = 0
    for txn, txn_ops in commits:
        for op in txn_ops:
            if len(op) == 2:
                if op[1] is not None:
                    ops.append((txn, op[0], None))
                continue
            # -- reads: join the claimed source through the position ----
            reads += 1
            entity, pos, writer = op
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
                if source != txn and rank[source] >= rank[txn]:
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

    # Promote this segment's committed writes into the track chain.
    for pos, (txn, entity) in seg_writes.items():
        chain[pos] = (entity, txn)
        newest = chain_latest.get(entity)
        if newest is None or pos > newest:
            chain_latest[entity] = pos
        if last_pos is None or pos > last_pos:
            last_pos = pos
    track.last_pos = last_pos

    return Joined(track.name, index, ops, tuple(rank), violations, reads)
