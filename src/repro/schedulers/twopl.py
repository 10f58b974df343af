"""Strict two-phase locking, rejection semantics.

The classical single-version baseline ([Yannakakis 81]: locking schedulers
output only CSR schedules).  Locks are acquired per step (shared for
reads, exclusive for writes, with upgrade) and held until the transaction
completes — *strict* 2PL.  Since the paper's schedulers cannot block, a
lock conflict rejects the schedule outright; the accepted set is therefore
a strict subset of CSR (e.g. ``R1(x) R2(x) W1(y) W2(y)`` with hot read
locks rejects under 2PL where SGT accepts).

Completion detection: the scheduler is given the number of steps of each
transaction (the transaction system is declared up front, as in the
storage engine's executor); locks release when the last step is accepted.
A transaction whose length was not declared holds its locks forever (a
degenerate but safe choice).

A step checks both lock conflicts before it takes a lock; an aborted
transaction is retracted by releasing the locks it still holds.
"""

from __future__ import annotations

from repro.model.steps import Entity, Op, Step, TxnId
from repro.schedulers.base import Scheduler

_READ = Op.READ


class TwoPhaseLocking(Scheduler):
    """Strict 2PL with reject-on-conflict."""

    name = "2pl"

    def __init__(self, steps_per_txn: dict[TxnId, int] | None = None) -> None:
        super().__init__()
        self._lengths = {} if steps_per_txn is None else steps_per_txn
        self._read_locks: dict[Entity, set[TxnId]] = {}
        self._write_locks: dict[Entity, TxnId] = {}
        self._held: dict[TxnId, set[Entity]] = {}

    def _reset(self) -> None:
        self._read_locks = {}
        self._write_locks = {}
        self._held = {}

    def _accept(self, step: Step) -> bool:
        txn, entity = step.txn, step.entity
        holder = self._write_locks.get(entity)
        if holder is not None and holder != txn:
            return False
        is_read = step.op is _READ
        if not is_read:
            readers = self._read_locks.get(entity)
            if readers and (len(readers) > 1 or txn not in readers):
                return False
        # The step stands: take its lock.
        if is_read:
            self._read_locks.setdefault(entity, set()).add(txn)
        else:
            self._write_locks[entity] = txn
        self._held.setdefault(txn, set()).add(entity)
        if self._completes(txn):
            self._release(txn)
        self._count(txn)
        return True

    def _release(self, txn: TxnId) -> None:
        read_locks, write_locks = self._read_locks, self._write_locks
        for entity in self._held.pop(txn):
            readers = read_locks.get(entity)
            if readers is not None:
                readers.discard(txn)
                if not readers:
                    del read_locks[entity]
            if write_locks.get(entity) == txn:
                del write_locks[entity]

    def retract(self, removed: list[int]) -> None:
        """Release the locks the doomed transactions still hold."""
        steps, held = self.accepted_steps, self._held
        for position in removed:
            txn = steps[position].txn
            if txn in held:
                self._release(txn)
        self._retract_log(removed)
        return None
