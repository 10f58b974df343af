"""Scheduler interface.

Schedulers are *testers* in the paper's model: they see a stream of steps
and accept or reject each one; rejecting a step rejects the schedule (no
blocking/retry semantics — a lock conflict is a rejection).  A scheduler's
output is the paper's pair *(s, V)*: every accepted read has a committed
source, available through :meth:`Scheduler.version_function`; a
single-version scheduler is the one whose *V* is the standard function.

There is no undo log: ``_accept`` decides first and mutates after, and
an aborted transaction is dropped in place (:meth:`Scheduler.retract`).
A dropped step keeps its position as a tombstone, ``None`` in
``accepted_steps``, until :meth:`Scheduler.reset`: nothing renumbers the
survivors, and every decision compares positions only by order.
"""

from __future__ import annotations

import abc

from repro.model.schedules import Schedule, T_INIT
from repro.model.steps import Entity, Op, Step, TxnId
from repro.model.version_functions import Source, VersionFunction

_READ = Op.READ
_NEVER = float("inf")


class Scheduler(abc.ABC):
    """Base class: stateful accept/reject over a stream of steps."""

    #: Human-readable name used in benchmark tables.
    name: str = "scheduler"

    #: Whether this scheduler's conflict state partitions by entity.
    #: A partitionable scheduler makes identical accept/reject decisions
    #: when its state is split into per-shard instances, each fed only
    #: the steps of its shard's entities (provided cross-shard transaction
    #: *order* is agreed up front — see :meth:`prime_transaction`).
    #: MVTO and SI qualify: their conflict checks only compare accesses to
    #: the same entity.  Lock-table and graph schedulers (2PL, 2V2PL, SGT)
    #: do not: a lock release or a serialization-graph cycle couples
    #: entities across shards, so the parallel runtime routes them through
    #: a shared conflict domain (:mod:`repro.runtime.shared`).
    shard_partitionable: bool = False

    #: Whether ``_accept`` chooses the source of each read it accepts and
    #: records it in ``_assignments`` (a multiversion scheduler).  For one
    #: that does not (2PL, SGT, serial), :meth:`submit` records the
    #: standard source.  A fact about the class's code, not an option.
    chooses_versions: bool = False

    def __init__(self) -> None:
        #: the accepted steps by position; ``None`` is a retracted one.
        self.accepted_steps: list[Step | None] = []
        self.dead: bool = False
        #: committed source per accepted read position — the *V* of (s, V).
        self._assignments: dict[int, Source] = {}
        #: position of each entity's last accepted write (standard source).
        self._last_write: dict[Entity, int] = {}
        #: declared step counts and accepted steps so far, for
        #: :meth:`_completes`.  A scheduler that takes ``steps_per_txn``
        #: rebinds ``_lengths`` to the caller's dict, by reference: the
        #: online engine registers lengths as sessions begin them.
        self._lengths: dict[TxnId, int] = {}
        self._seen: dict[TxnId, int] = {}

    # -- core protocol ---------------------------------------------------

    def submit(self, step: Step) -> bool:
        """Feed one step; True iff accepted.

        After a rejection the scheduler is *dead*: the schedule has been
        rejected and every later step is rejected too (the paper's
        scheduler rejects the step and the schedule).
        """
        if self.dead:
            return False
        if not self._accept(step):
            self.dead = True
            return False
        self.accepted_steps.append(step)
        if self.chooses_versions:
            return True
        # Record the standard source: each entity's last accepted write.
        position = len(self.accepted_steps) - 1
        if step.op is _READ:
            self._assignments[position] = self._last_write.get(
                step.entity, T_INIT
            )
        else:
            self._last_write[step.entity] = position
        return True

    @abc.abstractmethod
    def _accept(self, step: Step) -> bool:
        """Decide one step; a rejected step must leave no trace.

        Decide first, mutate after: every check runs against the state as
        it stands, and only a step that passes them all stores anything.
        Nothing undoes a rejection, so after one the state equals the
        state before it except for ``dead`` (which :meth:`submit` sets).
        """

    def reset(self) -> None:
        """Restore the initial state (a fresh scheduler)."""
        self.accepted_steps = []
        self.dead = False
        self._assignments = {}
        self._last_write = {}
        self._seen = {}
        self._reset()

    @abc.abstractmethod
    def _reset(self) -> None:
        """Subclass part of :meth:`reset`."""

    # -- retraction ----------------------------------------------------------

    def retract(self, removed: list[int]) -> int | None:
        """Forget the accepted steps at the sorted positions ``removed``.

        ``removed`` holds every step of a set of transactions, closed
        under reads-from: no surviving read was served a removed write.
        Each removed position stays in ``accepted_steps`` as a tombstone,
        ``None``, and no survivor moves.  Afterwards the scheduler cannot
        be told apart from a fresh one re-fed the same log, tombstones
        kept as holes: the same accepted steps, read sources and
        decisions on any continuation, and a dead scheduler is alive
        again.  Returns the position of a survivor that re-feeding would
        reject, or None.  Every engine scheduler (MVTO, SGT, 2PL, SI,
        2V2PL) decides first and drops the doomed transactions in place,
        through :meth:`_retract_log`, and rejects none: a survivor's
        decision only ever depended on the doomed by being rejected less.
        A scheduler the online engine does not run need not retract.
        """
        raise NotImplementedError(f"{self.name} does not retract")

    def _retract_log(self, removed: list[int]) -> None:
        """What every in-place :meth:`retract` does to the base state.

        Tombstones the removed steps, drops their read sources and their
        transactions' step counts, and restores each entity's last write
        to its last surviving one (:meth:`_fall_back`).  O(removed) but
        for the fallback's scan.  A subclass reads the doomed steps
        first, while ``accepted_steps`` still holds them.
        """
        self.dead = False
        steps, seen = self.accepted_steps, self._seen
        assignments, last_write = self._assignments, self._last_write
        # Ascending: every removed write below ``position`` is a
        # tombstone already when the fallback scans past it.
        for position in removed:
            step = steps[position]
            steps[position] = None
            assignments.pop(position, None)
            seen.pop(step.txn, None)
            if last_write.get(step.entity) == position:
                self._fall_back(last_write, step.entity, position)

    def _fall_back(self, table: dict, entity: Entity, position: int) -> None:
        """Point ``table[entity]`` at the last accepted write of
        ``entity`` below ``position``, past tombstones; drop the key if
        there is none.  Scans back from ``position``."""
        steps = self.accepted_steps
        for earlier in range(position - 1, -1, -1):
            step = steps[earlier]
            if step is None:
                continue  # a tombstone is no write
            if step.entity == entity and step.op is not _READ:
                table[entity] = earlier
                return
        del table[entity]

    def _completes(self, txn: TxnId) -> bool:
        """True iff the step being decided brings ``txn`` to its declared
        length (undeclared: never).  Counts nothing: :meth:`_count` does,
        once the step stands."""
        return self._seen.get(txn, 0) + 1 >= self._lengths.get(txn, _NEVER)

    def _count(self, txn: TxnId) -> None:
        """Count one accepted step of ``txn`` (see :meth:`_completes`)."""
        self._seen[txn] = self._seen.get(txn, 0) + 1

    # -- shard-parallel extras ---------------------------------------------

    def prime_transaction(self, txn: TxnId, seq: int) -> None:
        """Fix ``txn``'s global ordering token before its first step.

        The parallel runtime (:mod:`repro.runtime`) splits a partitionable
        scheduler into one instance per shard.  Any scheduler that orders
        transactions by *arrival* (MVTO timestamps) would then derive a
        different order on each shard — a cross-shard transaction can be
        first-seen at different relative positions per shard.  Priming
        hands every shard the same dispatcher-assigned sequence number, so
        all shards realize one global serialization order.  Primes survive
        :meth:`reset` and :meth:`retract` (a re-derived prefix must
        decide identically) and are dropped only by
        :meth:`clear_primes` at epoch boundaries.
        The default is a no-op: schedulers that don't order by arrival
        need no priming.
        """

    def clear_primes(self) -> None:
        """Forget all primed transactions (epoch boundary; default no-op)."""

    # -- multiversion extras -----------------------------------------------

    def version_function(self) -> VersionFunction:
        """The version assignment committed over the accepted prefix.

        Positions index into ``accepted_steps``.
        """
        return VersionFunction(dict(self._assignments))

    def source_of_read(self, position: int) -> Source:
        """Source committed for the accepted read at ``position``.

        The position of the sourcing write within ``accepted_steps``, or
        ``T_INIT`` — never "unspecified".  O(1): the online engine
        (:mod:`repro.engine`) asks it of every read it accepts.
        """
        return self._assignments[position]

    def accepts(self, schedule: Schedule) -> bool:
        """Reset, then feed the whole schedule; True iff all accepted."""
        self.reset()
        return all(self.submit(step) for step in schedule)

    def accepted_prefix_length(self, schedule: Schedule) -> int:
        """Reset, feed until the first rejection, return accepted count."""
        self.reset()
        for n, step in enumerate(schedule):
            if not self.submit(step):
                return n
        return len(schedule)


def run_schedule(
    scheduler: Scheduler, schedule: Schedule
) -> tuple[bool, VersionFunction]:
    """Feed ``schedule``; return (accepted, committed version function)."""
    accepted = scheduler.accepts(schedule)
    return accepted, scheduler.version_function()


def source_txn_of_last_read(
    scheduler: Scheduler,
) -> TxnId | None:
    """Source transaction the scheduler assigned to its last accepted read.

    None when there is no accepted read.
    """
    reads = [
        n for n, s in enumerate(scheduler.accepted_steps) if s.is_read
    ]
    if not reads:
        return None
    prefix = Schedule(tuple(scheduler.accepted_steps))
    return scheduler.version_function().source_txn(prefix, reads[-1])
