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
"""

from __future__ import annotations

from repro.model.schedules import Schedule, T_INIT
from repro.model.steps import Entity, Step, TxnId
from repro.schedulers.base import Scheduler


class SnapshotIsolationScheduler(Scheduler):
    """First-committer-wins snapshot isolation over the version store."""

    name = "si"
    journaled = True
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
        self._committed_at: dict[TxnId, int] = {}
        #: committed versions per entity: (commit position, write position).
        self._committed_versions: dict[Entity, list[tuple[int, int]]] = {}
        #: uncommitted writes per txn: entity -> write position.
        self._pending_writes: dict[TxnId, dict[Entity, int]] = {}

    def _reset(self) -> None:
        self._start = {}
        self._committed_at = {}
        self._committed_versions = {}
        self._pending_writes = {}

    def _accept(self, step: Step) -> bool:
        txn, entity = step.txn, step.entity
        position = len(self.accepted_steps)
        if txn not in self._start:
            self._set(self._start, txn, position)
        if step.is_read:
            pending = self._pending_writes.get(txn, {})
            if entity in pending:
                # Own uncommitted write.
                source: int | str = pending[entity]
            else:
                # Latest version committed before this txn's snapshot.
                snapshot = self._start[txn]
                source = T_INIT
                for commit_pos, write_pos in self._committed_versions.get(
                    entity, ()
                ):
                    if commit_pos <= snapshot:
                        source = write_pos
            self._set(self._assignments, position, source)
        else:
            self._set(
                self._setdefault(self._pending_writes, txn, {}),
                entity,
                position,
            )
        if self._completes(txn):
            return self._commit(txn, position)
        return True

    def _commit(self, txn: TxnId, position: int) -> bool:
        """First-committer-wins: abort on overlapping committed writers."""
        start = self._start[txn]
        writes = self._pending_writes.get(txn, {})
        for entity in writes:
            for commit_pos, _wp in self._committed_versions.get(entity, ()):
                if commit_pos > start:
                    # A concurrent transaction committed a write of this
                    # entity first: this transaction must abort, which in
                    # the paper's model rejects the schedule.
                    return False
        if writes:
            self._pop(self._pending_writes, txn)
        for entity, write_pos in writes.items():
            # Commit positions only grow, so appending keeps the list
            # sorted by commit position.
            versions = self._setdefault(self._committed_versions, entity, [])
            versions.append((position, write_pos))
            self._on_undo(versions.pop)
        self._set(self._committed_at, txn, position)
        return True


def write_skew_schedule() -> Schedule:
    """The canonical SI anomaly, in the paper's notation."""
    from repro.model.parsing import parse_schedule

    return parse_schedule("R1(x) R1(y) R2(x) R2(y) W1(x) W2(y)")
