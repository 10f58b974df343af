"""Scheduler interface.

Schedulers are *testers* in the paper's model: they see a stream of steps
and accept or reject each one; rejecting a step rejects the schedule (no
blocking/retry semantics — a lock conflict is a rejection).  A scheduler's
output is the paper's pair *(s, V)*: every accepted read has a committed
source, available through :meth:`Scheduler.version_function`; a
single-version scheduler is the one whose *V* is the standard function.
"""

from __future__ import annotations

import abc

from repro.model.schedules import Schedule, T_INIT
from repro.model.steps import Entity, Op, Step, TxnId
from repro.model.version_functions import Source, VersionFunction

_READ = Op.READ


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

    #: Whether ``_accept`` journals *every* mutation it makes (through
    #: :meth:`_on_undo` and the journaled dict/set operations beside it)
    #: — the read sources in ``_assignments`` aside, which
    #: :meth:`truncate` drops by position — so that :meth:`truncate` can
    #: undo steps instead of re-deriving the prefix, and the default
    #: :meth:`retract` truncates through it (2PL, SI, 2V2PL).  MVTO and
    #: SGT do not journal: they decide first, mutate after and retract in
    #: place, so nothing would read a journal of theirs.  A fact about
    #: the class's code, not an option to set.
    journaled: bool = False

    #: Whether ``_accept`` chooses the source of each read it accepts and
    #: records it in ``_assignments`` (a multiversion scheduler).  For one
    #: that does not (2PL, SGT, serial), :meth:`submit` records the
    #: standard source.  Like :attr:`journaled`, a fact about the code.
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
        #: undo journal: the inverse ``(fn, args)`` of every mutation a
        #: journaling ``_accept`` made, oldest first (see :meth:`truncate`).
        self._undo_log: list[tuple] = []
        #: ``_marks[i]`` = journal length before accepted step ``i``.  Kept
        #: by a :attr:`journaled` scheduler only (empty for any other), whose
        #: :meth:`truncate` reads it; its :meth:`retract` truncates, so the
        #: marks stay in step with ``accepted_steps``.
        self._marks: list[int] = []

    # -- core protocol ---------------------------------------------------

    def submit(self, step: Step) -> bool:
        """Feed one step; True iff accepted.

        After a rejection the scheduler is *dead*: the schedule has been
        rejected and every later step is rejected too (the paper's
        scheduler rejects the step and the schedule).
        """
        if self.dead:
            return False
        mark = len(self._undo_log)
        if self._accept(step):
            self.accepted_steps.append(step)
            # Only a journaled class keeps journal state past the step:
            # its mark, and the inverse of its last-write update below.
            journaled = self.journaled
            if journaled:
                self._marks.append(mark)
            if self.chooses_versions:
                return True
            # Record the standard source.  A read's is dropped with its
            # position (:meth:`truncate`); a write's is journaled, if
            # the class journals.
            position = len(self.accepted_steps) - 1
            entity, last_write = step.entity, self._last_write
            if step.op is _READ:
                self._assignments[position] = last_write.get(entity, T_INIT)
                return True
            if journaled:
                journal = self._undo_log
                if entity in last_write:
                    journal.append(
                        (last_write.__setitem__, (entity, last_write[entity]))
                    )
                else:
                    journal.append((last_write.pop, (entity,)))
            last_write[entity] = position
            return True
        self._unwind(mark)
        self.dead = True
        return False

    @abc.abstractmethod
    def _accept(self, step: Step) -> bool:
        """Decide one step; a rejected step must leave no trace.

        Either decide first and mutate after, or journal every mutation
        (:meth:`_on_undo` and the journaled dict/set operations beside
        it): :meth:`submit` unwinds what a rejected step journaled, so
        after a rejection the state equals the state before it except for
        ``dead``.
        """

    def reset(self) -> None:
        """Restore the initial state (a fresh scheduler)."""
        self.accepted_steps = []
        self.dead = False
        self._undo_log = []
        self._marks = []
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
        across :meth:`reset`.  A :attr:`journaled` scheduler unwinds its
        undo journal to the mark of step ``n``, which costs the steps
        undone; any other re-derives the state — reset, then re-submit
        ``accepted_steps[:n]`` — which costs the prefix and is the
        reference the journaled schedulers are tested against.
        """
        if not 0 <= n <= len(self.accepted_steps):
            raise ValueError(
                f"truncate({n}) with {len(self.accepted_steps)} accepted steps"
            )
        if self.journaled:
            if n < len(self._marks):
                self._unwind(self._marks[n])
                del self._marks[n:]
                # Read sources go with their positions: not journaled.
                for position in self._reads_from(n):
                    self._assignments.pop(position, None)
            del self.accepted_steps[n:]
            self.dead = False
            return
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

        This default *is* truncate plus re-submit.  It returns the
        position of the first survivor it rejects, or None.  A rejection
        leaves the scheduler dead after the survivors before that one,
        with ``accepted_steps`` still listing every survivor: the next
        ``retract`` must remove the rejected step, so it cuts at or below
        it and re-submits the rest.  A scheduler whose state can drop a
        transaction in place overrides this (MVTO, SGT) and rejects none;
        such a scheduler keeps no journal (:attr:`journaled` is False).
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
        its last surviving one, and moves every survivor above the cut
        down over the removed positions below it.  Returns old position
        -> new for each surviving write above the cut.  One pass over the
        suffix.  It rewrites positions no journal could follow, which is
        why a scheduler that retracts in place does not journal.
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
                position -= 1
                while position >= 0:
                    step = steps[position]
                    if (
                        step.entity == entity and step.op is not _READ
                        and position not in gone
                    ):
                        last_write[entity] = position
                        break
                    position -= 1
                else:
                    del last_write[entity]
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

    def _reads_from(self, cut: int) -> list[int]:
        """The read positions from ``cut`` on that have a source, last
        first: the source map holds them in ascending order."""
        tail = []
        for position in reversed(self._assignments):
            if position < cut:
                break
            tail.append(position)
        return tail

    def _on_undo(self, fn, *args) -> None:
        """Journal ``fn(*args)`` as the inverse of a mutation just made."""
        self._undo_log.append((fn, args))

    def _set(self, mapping: dict, key, value) -> None:
        """``mapping[key] = value``, journaled."""
        if key in mapping:
            self._undo_log.append((mapping.__setitem__, (key, mapping[key])))
        else:
            self._undo_log.append((mapping.pop, (key,)))
        mapping[key] = value

    def _setdefault(self, mapping: dict, key, default):
        """``mapping.setdefault(key, default)``, journaled."""
        if key not in mapping:
            self._undo_log.append((mapping.pop, (key,)))
            mapping[key] = default
        return mapping[key]

    def _pop(self, mapping: dict, key):
        """``mapping.pop(key)``, journaled."""
        value = mapping.pop(key)
        self._undo_log.append((mapping.__setitem__, (key, value)))
        return value

    def _add(self, members: set, member) -> None:
        """``members.add(member)``, journaled."""
        if member not in members:
            self._undo_log.append((members.discard, (member,)))
            members.add(member)

    def _discard(self, members: set, member) -> None:
        """``members.discard(member)``, journaled."""
        if member in members:
            self._undo_log.append((members.add, (member,)))
            members.discard(member)

    def _completes(self, txn: TxnId) -> bool:
        """Count this step of ``txn`` (journaled); True iff it brings the
        transaction to its declared length.  Undeclared: never completes.
        """
        seen = self._seen.get(txn, 0) + 1
        self._set(self._seen, txn, seen)
        return seen >= self._lengths.get(txn, float("inf"))

    def _unwind(self, mark: int) -> None:
        """Run the journal backwards until it is ``mark`` entries long."""
        pop = self._undo_log.pop
        for _ in range(len(self._undo_log) - mark):
            fn, args = pop()
            fn(*args)

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
