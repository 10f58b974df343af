"""Snapshot isolation — the multiversion algorithm the industry shipped.

Forty years downstream of this paper, the dominant production use of
multiversion storage is *snapshot isolation* (SI): each transaction reads
the versions committed at its start and writers obey first-committer-wins
on write-write conflicts.  SI is cheap precisely because it commits a
version function on the spot (an OLS-style discipline) — but it is **not
a multiversion scheduler in the paper's sense**: the schedules it accepts
are not all MVSR.  The classic counterexample is *write skew*::

    T1: R(x) R(y) W(x)      T2: R(x) R(y) W(y)

interleaved so both read before either writes — SI accepts (disjoint
write sets), yet no version function serializes it.  The test suite and
benchmark E14 measure exactly how often SI steps outside MVSR, tying the
1985 framework to the modern anomaly literature.

Model mapping: a transaction *starts* at its first step and *commits* at
its last (step counts are declared up front, as for 2PL); two
transactions are concurrent iff their [start, commit] spans overlap.

A step decides first-committer-wins before it stores anything; an
aborted transaction is retracted in place (:meth:`retract`).
"""

from __future__ import annotations

from repro.model.schedules import Schedule, T_INIT
from repro.model.steps import Entity, Op, Step, TxnId
from repro.schedulers.base import Scheduler, moved_down

_READ = Op.READ


class SnapshotIsolationScheduler(Scheduler):
    """First-committer-wins snapshot isolation over the version store."""

    name = "si"
    chooses_versions = True
    #: Snapshot reads and first-committer-wins both compare accesses to
    #: one entity at a time, so per-shard SI instances decide like SI with
    #: per-shard snapshot points (each shard's snapshot is taken at the
    #: transaction's first step *on that shard*) — the "generalized SI"
    #: relaxation production systems ship.  Write-write conflicts are
    #: still caught per entity, which is what the integrity workloads
    #: (lost updates) need.
    shard_partitionable = True

    def __init__(self, steps_per_txn: dict[TxnId, int] | None = None) -> None:
        super().__init__()
        self._lengths = {} if steps_per_txn is None else steps_per_txn
        self._start: dict[TxnId, int] = {}
        #: committed versions per entity: (commit position, write position).
        self._committed_versions: dict[Entity, list[tuple[int, int]]] = {}
        #: uncommitted writes per txn: entity -> write position.
        self._pending_writes: dict[TxnId, dict[Entity, int]] = {}

    def _reset(self) -> None:
        self._start = {}
        self._committed_versions = {}
        self._pending_writes = {}

    def _accept(self, step: Step) -> bool:
        txn, entity = step.txn, step.entity
        position = len(self.accepted_steps)
        start = self._start.get(txn, position)
        pending = self._pending_writes.get(txn, {})
        is_read = step.op is _READ
        committed = self._committed_versions
        completes = self._completes(txn)
        if completes:
            # First-committer-wins, decided before anything is stored: a
            # transaction that committed after this one started wrote an
            # entity this one would commit (this step's write included),
            # so this one aborts — in the paper's model, the schedule.
            for written in [*pending, entity] if not is_read else pending:
                for commit_pos, _wp in committed.get(written, ()):
                    if commit_pos > start:
                        return False
        # The step stands.
        self._count(txn)
        self._start.setdefault(txn, start)
        if is_read:
            # Own uncommitted write, else the latest version committed
            # before this txn's snapshot.
            source = pending.get(entity)
            if source is None:
                source = T_INIT
                for commit_pos, write_pos in committed.get(entity, ()):
                    if commit_pos <= start:
                        source = write_pos
            self._assignments[position] = source
        else:
            self._pending_writes.setdefault(txn, pending)[entity] = position
        if completes:
            # Commit positions only grow, so appending keeps each list
            # sorted by commit position.
            writes = self._pending_writes.pop(txn, {})
            for written, write_pos in writes.items():
                committed.setdefault(written, []).append((position, write_pos))
        return True

    def retract(self, removed: list[int]) -> None:
        """Drop the doomed transactions' snapshots, pending writes and
        committed versions; move the survivors' positions down."""
        steps, gone = self.accepted_steps, set(removed)
        cut = removed[0] if removed else len(steps)
        starts, pending = self._start, self._pending_writes
        # Every step of a doomed transaction is at or above the cut, and
        # so is every snapshot start that moves.
        for position in range(cut, len(steps)):
            txn = steps[position].txn
            if position in gone:
                starts.pop(txn, None)
                pending.pop(txn, None)
            elif starts[txn] == position:
                starts[txn] = moved_down(position, removed)
        moved = self._retract_log(removed)
        for writes in pending.values():
            for entity, position in writes.items():
                writes[entity] = moved.get(position, position)
        # What committed at or above the cut is a tail of each list: a
        # doomed commit's versions leave, the others move down.
        committed = self._committed_versions
        for entity, versions in list(committed.items()):
            low = len(versions)
            while low and versions[low - 1][0] >= cut:
                low -= 1
            versions[low:] = [
                (moved_down(commit_pos, removed), moved.get(wp, wp))
                for commit_pos, wp in versions[low:]
                if commit_pos not in gone
            ]
            if not versions:
                del committed[entity]
        return None


def write_skew_schedule() -> Schedule:
    """The canonical SI anomaly, in the paper's notation."""
    from repro.model.parsing import parse_schedule

    return parse_schedule("R1(x) R1(y) R2(x) R2(y) W1(x) W2(y)")
