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
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.model.schedules import T_INIT
from repro.model.steps import Entity, Step, TxnId
from repro.model.version_functions import Source
from repro.schedulers.base import Scheduler


@dataclass
class _Version:
    """One write; its writer's timestamp is the chain's key beside it."""

    source: Source  # what a read of it is assigned: its position, or T_INIT
    max_reader_ts: int = -1


class MVTOScheduler(Scheduler):
    """Multiversion timestamp ordering with reject-on-invalidation."""

    name = "mvto"
    journaled = True
    chooses_versions = True
    #: Timestamp comparisons only relate accesses to the same entity, so
    #: per-shard MVTO instances with primed (globally agreed) timestamps
    #: decide exactly like one global instance.
    shard_partitionable = True

    def __init__(self) -> None:
        super().__init__()
        self._timestamps: dict[TxnId, int] = {}
        #: dispatcher-assigned timestamps (parallel runtime); survive
        #: _reset so abort-replay re-derives identical decisions.  Do not
        #: mix primed and arrival-order transactions in one epoch: primes
        #: use a different counter space.
        self._primed: dict[TxnId, int] = {}
        #: per entity, the writer timestamps in ascending order and the
        #: versions they belong to, index for index.
        self._chains: dict[Entity, tuple[list[int], list[_Version]]] = {}

    def _reset(self) -> None:
        self._timestamps = {}
        self._chains = {}

    def prime_transaction(self, txn: TxnId, seq: int) -> None:
        self._primed[txn] = seq

    def clear_primes(self) -> None:
        self._primed.clear()

    def _timestamp(self, txn: TxnId) -> int:
        if txn not in self._timestamps:
            self._set(
                self._timestamps,
                txn,
                self._primed.get(txn, len(self._timestamps)),
            )
        return self._timestamps[txn]

    def _chain(self, entity: Entity) -> tuple[list[int], list[_Version]]:
        if entity not in self._chains:
            # The initial version, written by T0 "at minus infinity".
            self._set(self._chains, entity, ([-1], [_Version(T_INIT)]))
        return self._chains[entity]

    def _accept(self, step: Step) -> bool:
        ts = self._timestamp(step.txn)
        position = len(self.accepted_steps)
        keys, chain = self._chain(step.entity)
        # Versions left of ``slot`` have writer timestamp <= ts.
        slot = bisect_right(keys, ts)
        if step.is_read:
            # The latest of them; a transaction re-reading after several
            # own writes sees its own latest write (arrival order).
            version = chain[slot - 1]
            if ts > version.max_reader_ts:
                self._on_undo(
                    setattr, version, "max_reader_ts", version.max_reader_ts
                )
                version.max_reader_ts = ts
            self._set(self._assignments, position, version.source)
            return True
        # Write.  A second own write shadows the first, so a younger
        # reader of an earlier own version would be invalidated ...
        idx = slot - 1
        while keys[idx] == ts:
            if chain[idx].max_reader_ts > ts:
                return False
            idx -= 1
        # ... and so would one of the version this write slots right
        # after, the last with a smaller timestamp (classic MVTO rule).
        if chain[idx].max_reader_ts > ts:
            return False
        chain.insert(slot, _Version(position))
        self._on_undo(chain.pop, slot)
        keys.insert(slot, ts)
        self._on_undo(keys.pop, slot)
        return True

    def serialization_order(self) -> list[TxnId]:
        """Timestamp order — the serial order MVTO realizes."""
        return sorted(self._timestamps, key=self._timestamps.get)
