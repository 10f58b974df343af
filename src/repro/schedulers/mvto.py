"""Multiversion timestamp ordering (Reed; [Bernstein & Goodman 83]).

Each transaction gets a timestamp at its first step (arrival order).  A
read by ``T`` is served the latest version with writer timestamp at most
``T``'s, and records itself as a reader of that version; a write by ``T``
is rejected iff it would invalidate a read that already happened — i.e.
iff the version it would slot right after (the last one with timestamp
below ``T``'s) has a reader with timestamp above ``T``'s.  The accepted
set is an OLS subset of MVSR: the induced serialization order is the
timestamp order, so the version function is committed on the spot and
never retracted — the concession Theorem 4 shows is unavoidable.

An entity's versions are kept ordered by ``(writer timestamp, arrival)``
beside a parallel list of the timestamps alone, so both rules are one
``bisect_right`` — a step costs the logarithm of the chain, not its
length.  A transaction's rewrites of an entity sit next to each other in
arrival order: the last of them is what any other transaction reads, and
the one a later write between the two timestamps has to check.

A step decides first and mutates after, so a rejected step leaves no
trace.  An aborted transaction
is retracted in place (:meth:`retract`): its versions and timestamp
leave, and every version it read falls back to the largest timestamp
among its surviving readers.  Each version keeps its readers'
timestamps for that; fresh timestamps come from a counter, so a
retracted transaction's timestamp is never issued again.  No survivor
moves, so no version's ``source`` changes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from repro.model.schedules import T_INIT
from repro.model.steps import Entity, Op, Step, TxnId
from repro.model.version_functions import Source
from repro.schedulers.base import Scheduler

_READ = Op.READ


@dataclass(slots=True)
class _Version:
    """One write; its writer's timestamp is the chain's key beside it."""

    source: Source  # what a read of it is assigned: its position, or T_INIT
    max_reader_ts: int = -1
    #: the timestamp of every accepted read of it, in arrival order.
    readers: list[int] = field(default_factory=list)


class MVTOScheduler(Scheduler):
    """Multiversion timestamp ordering with reject-on-invalidation."""

    name = "mvto"
    chooses_versions = True
    #: Timestamp comparisons only relate accesses to the same entity, so
    #: per-shard MVTO instances with primed (globally agreed) timestamps
    #: decide exactly like one global instance.
    shard_partitionable = True

    def __init__(self) -> None:
        super().__init__()
        self._timestamps: dict[TxnId, int] = {}
        #: the next arrival-order timestamp.
        self._clock = 0
        #: dispatcher-assigned timestamps (parallel runtime); survive
        #: _reset so a re-derived prefix decides identically.  Do not
        #: mix primed and arrival-order transactions in one epoch: primes
        #: use a different counter space.
        self._primed: dict[TxnId, int] = {}
        #: per entity, the writer timestamps in ascending order and the
        #: versions they belong to, index for index.
        self._chains: dict[Entity, tuple[list[int], list[_Version]]] = {}

    def _reset(self) -> None:
        self._timestamps = {}
        self._clock = 0
        self._chains = {}

    def prime_transaction(self, txn: TxnId, seq: int) -> None:
        self._primed[txn] = seq

    def clear_primes(self) -> None:
        self._primed.clear()

    def _accept(self, step: Step) -> bool:
        # Decide first: a fresh timestamp and an untouched entity's
        # initial chain are only stored once the step stands.
        txn, entity = step.txn, step.entity
        timestamps = self._timestamps
        fresh = txn not in timestamps
        ts = (
            self._primed.get(txn, self._clock) if fresh
            else timestamps[txn]
        )
        pair = self._chains.get(entity)
        if pair is None:
            # The initial version, written by T0 "at minus infinity".
            keys, chain = [-1], [_Version(T_INIT)]
        else:
            keys, chain = pair
        # Versions left of ``slot`` have writer timestamp <= ts.
        slot = bisect_right(keys, ts)
        is_read = step.op is Op.READ
        if not is_read:
            # A second own write shadows the first, so a younger reader
            # of an earlier own version would be invalidated ...
            idx = slot - 1
            while keys[idx] == ts:
                if chain[idx].max_reader_ts > ts:
                    return False
                idx -= 1
            # ... and so would one of the version this write slots right
            # after, the last with a smaller timestamp (classic MVTO rule).
            if chain[idx].max_reader_ts > ts:
                return False
        if fresh:
            timestamps[txn] = ts
            self._clock += 1
        if pair is None:
            self._chains[entity] = keys, chain
        position = len(self.accepted_steps)
        if is_read:
            # The latest version at or below ts; a transaction re-reading
            # after several own writes sees its own latest write (arrival
            # order).
            version = chain[slot - 1]
            if ts > version.max_reader_ts:
                version.max_reader_ts = ts
            version.readers.append(ts)
            self._assignments[position] = version.source
            return True
        chain.insert(slot, _Version(position, -1, []))
        keys.insert(slot, ts)
        return True

    def _served(self, position: int) -> _Version:
        """The version the accepted read at ``position`` was served."""
        steps, source = self.accepted_steps, self._assignments[position]
        keys, chain = self._chains[steps[position].entity]
        if source == T_INIT:
            return chain[0]
        # The writer's versions of the entity sit together, ending at
        # the last key at or below its timestamp.
        index = bisect_right(keys, self._timestamps[steps[source].txn]) - 1
        while chain[index].source != source:
            index -= 1
        return chain[index]

    def retract(self, removed: list[int]) -> None:
        """Drop the doomed transactions' versions, timestamps and reads."""
        steps, chains = self.accepted_steps, self._chains
        timestamps, assignments = self._timestamps, self._assignments
        doomed = {steps[position].txn for position in removed}
        for position in removed:
            step = steps[position]
            if step.op is not _READ:
                continue
            source = assignments[position]
            if source != T_INIT and steps[source].txn in doomed:
                continue  # the version leaves with its writer
            # The version forgets the read; if it was the largest
            # reader, the largest survivor takes over.
            version, ts = self._served(position), timestamps[step.txn]
            version.readers.remove(ts)
            if version.max_reader_ts == ts:
                version.max_reader_ts = max(version.readers, default=-1)
        lost = {txn: timestamps.pop(txn) for txn in doomed}
        for position in removed:
            step = steps[position]
            if step.op is not _READ:
                # The writer's versions of the entity leave together.
                keys, chain = chains[step.entity]
                ts = lost[step.txn]
                low, high = bisect_left(keys, ts), bisect_right(keys, ts)
                del keys[low:high], chain[low:high]
        self._retract_log(removed)
        return None

    def serialization_order(self) -> list[TxnId]:
        """Timestamp order — the serial order MVTO realizes."""
        return sorted(self._timestamps, key=self._timestamps.get)
