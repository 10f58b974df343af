"""Multiversion timestamp ordering (Reed; [Bernstein & Goodman 83]).

Each transaction gets a timestamp at its first step (arrival order).  A
read by ``T`` is served the latest version with writer timestamp at most
``T``'s, and records itself as a reader of that version; a write by ``T``
is rejected iff it would invalidate a read that already happened — i.e.
iff some version with timestamp below ``T``'s has a reader with timestamp
above ``T``'s.  The accepted set is an OLS subset of MVSR: the induced
serialization order is the timestamp order, so the version function is
committed on the spot and never retracted — the concession Theorem 4
shows is unavoidable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.schedules import Schedule, T_INIT
from repro.model.steps import Entity, Step, TxnId
from repro.schedulers.base import Scheduler


@dataclass
class _Version:
    writer_ts: int
    writer: TxnId
    step_position: int | None  # None for the initial version
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
        self._versions: dict[Entity, list[_Version]] = {}

    def _reset(self) -> None:
        self._timestamps = {}
        self._versions = {}

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

    def _chain(self, entity: Entity) -> list[_Version]:
        if entity not in self._versions:
            # The initial version, written by T0 "at minus infinity".
            self._set(self._versions, entity, [_Version(-1, T_INIT, None)])
        return self._versions[entity]

    def _accept(self, step: Step) -> bool:
        ts = self._timestamp(step.txn)
        position = len(self.accepted_steps)
        chain = self._chain(step.entity)
        if step.is_read:
            # Latest version with writer timestamp <= ts; chain order
            # breaks ties so a transaction re-reading after several own
            # writes sees its own latest write.
            candidates = [
                (idx, v) for idx, v in enumerate(chain) if v.writer_ts <= ts
            ]
            _, version = max(candidates, key=lambda iv: (iv[1].writer_ts, iv[0]))
            if ts > version.max_reader_ts:
                self._on_undo(
                    setattr, version, "max_reader_ts", version.max_reader_ts
                )
                version.max_reader_ts = ts
            self._set(
                self._assignments,
                position,
                T_INIT if version.step_position is None else version.step_position,
            )
            return True
        # Write: a second own write shadows the first, so readers of any
        # earlier same-timestamp version from younger transactions would be
        # invalidated.
        for v in chain:
            if v.writer_ts == ts and v.max_reader_ts > ts:
                return False
        # Classic MVTO rule: rejected iff a younger transaction already
        # read the version this write would slot right after.
        predecessors = [v for v in chain if v.writer_ts < ts]
        slot_after = max(predecessors, key=lambda v: v.writer_ts)
        if slot_after.max_reader_ts > ts:
            return False
        chain.append(_Version(ts, step.txn, position))
        self._on_undo(chain.pop)
        return True

    def serialization_order(self) -> list[TxnId]:
        """Timestamp order — the serial order MVTO realizes."""
        return sorted(self._timestamps, key=self._timestamps.get)
