"""Scheduler interface.

Schedulers are *testers* in the paper's model: they see a stream of steps
and accept or reject each one; rejecting a step rejects the schedule (no
blocking/retry semantics — a lock conflict is a rejection).  A scheduler's
output is the paper's pair *(s, V)*: every accepted read has a committed
source, available through :meth:`Scheduler.version_function`; a
single-version scheduler is the one whose *V* is the standard function.

There is no undo log: ``_accept`` decides first and mutates after, an
aborted transaction is dropped in place (:meth:`Scheduler.retract`), and
:meth:`Scheduler.truncate` re-derives a prefix — the reference.
"""

from __future__ import annotations

import abc
from bisect import bisect_left

from repro.model.schedules import Schedule, T_INIT
from repro.model.steps import Entity, Op, Step, TxnId
from repro.model.version_functions import Source, VersionFunction

_READ = Op.READ
_NEVER = float("inf")


def moved_down(position: int, removed: list[int]) -> int:
    """Where a surviving ``position`` lands when the sorted positions
    ``removed`` leave the log: down by the number of them below it."""
    return position - bisect_left(removed, position)


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
        self.accepted_steps: list[Step] = []
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

    # -- truncation ----------------------------------------------------------

    def truncate(self, n: int) -> None:
        """Be in the state you had after your first ``n`` accepted steps.

        A scheduler is an on-line tester: its state is a function of the
        accepted prefix, so dropping the steps after ``n`` is always
        meaningful, and a dead scheduler comes back alive (the rejected
        step is forgotten with the rest).  Primes survive, as they do
        across :meth:`reset`.  The state is re-derived — reset, then
        re-submit ``accepted_steps[:n]`` — which costs the prefix: the
        reference path, called by the base :meth:`retract` and by tests,
        never by the online engine.
        """
        if not 0 <= n <= len(self.accepted_steps):
            raise ValueError(
                f"truncate({n}) with {len(self.accepted_steps)} accepted steps"
            )
        prefix = self.accepted_steps[:n]
        self.reset()
        for step in prefix:
            if not self.submit(step):
                raise RuntimeError(
                    f"{self.name}: truncate({n}) re-submitted the accepted "
                    f"prefix and {step} was rejected"
                )

    # -- retraction ----------------------------------------------------------

    def retract(self, removed: list[int]) -> int | None:
        """Forget the accepted steps at the sorted positions ``removed``.

        ``removed`` holds every step of a set of transactions, closed
        under reads-from: no surviving read was served a removed write.
        Afterwards the scheduler cannot be told apart from one truncated
        to the first removed position (``cut``) that re-submitted the
        surviving ``accepted_steps[cut:]``: the same accepted steps, read
        sources and decisions on any continuation, and a dead scheduler
        is alive again.  Survivors move down by the number of removed
        positions below them, as they do in the online engine's log.

        This default *is* truncate plus re-submit: the definition the
        in-place overrides are tested against.  It returns the position
        of the first survivor it rejects, or None.  A rejection leaves
        the scheduler dead after the survivors before that one, with
        ``accepted_steps`` still listing every survivor.  Every engine
        scheduler (MVTO, SGT, 2PL, SI, 2V2PL) decides first and drops
        the doomed transactions in place instead, through
        :meth:`_retract_log`, and rejects none: a survivor's decision
        only ever depended on the doomed by being rejected less.
        """
        cut = removed[0] if removed else len(self.accepted_steps)
        gone = set(removed)
        survivors = [
            step
            for position, step in enumerate(self.accepted_steps[cut:], cut)
            if position not in gone
        ]
        self.truncate(cut)
        for position, step in enumerate(survivors, cut):
            if not self.submit(step):
                self.accepted_steps.extend(survivors[position - cut:])
                return position
        return None

    def _retract_log(self, removed: list[int]) -> dict[Source, int]:
        """What every in-place :meth:`retract` does to the base state.

        Drops the removed steps, their read sources and their
        transactions' step counts, restores each entity's last write to
        its last surviving one (:meth:`_fall_back`), and moves
        every survivor above the cut down over the removed positions
        below it (:func:`moved_down`, counted as the suffix is walked).
        Returns old position -> new for each surviving write above the
        cut.  One pass over the suffix.  A subclass drops its own state
        of the doomed first, while ``accepted_steps`` still holds them.
        """
        self.dead = False
        if not removed:
            return {}
        steps = self.accepted_steps
        cut = removed[0]
        gone = set(removed)
        seen, last_write = self._seen, self._last_write
        if seen:
            for position in removed:
                seen.pop(steps[position].txn, None)
        if last_write:
            for position in removed:
                entity = steps[position].entity
                if last_write.get(entity) != position:
                    continue
                # The doomed wrote last: fall back to the last survivor.
                self._fall_back(last_write, entity, position, gone)
        # Ascending, so each new key is free: everything between it and
        # its old one has moved already.  A source precedes its read.
        assignments = self._assignments
        moved: dict[Source, int] = {}
        new = cut
        for position in range(cut, len(steps)):
            source = assignments.pop(position, None)
            if position in gone:
                continue
            if source is not None:
                assignments[new] = moved.get(source, source)
            elif steps[position].op is not _READ:
                moved[position] = new
            new += 1
        for entity, position in last_write.items():
            if position > cut:
                last_write[entity] = moved[position]
        for position in reversed(removed):
            del steps[position]
        return moved

    def _fall_back(
        self, table: dict, entity: Entity, position: int, gone: set[int]
    ) -> None:
        """Point ``table[entity]`` at the last accepted write of
        ``entity`` below ``position`` that is not in ``gone``; drop the
        key if there is none.  Scans back from ``position``."""
        steps = self.accepted_steps
        for earlier in range(position - 1, -1, -1):
            step = steps[earlier]
            if (
                step.entity == entity and step.op is not _READ
                and earlier not in gone
            ):
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
        :meth:`reset`, :meth:`truncate` and :meth:`retract` (a re-derived
        prefix must decide identically) and are dropped only by
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
