"""The most conservative scheduler: serial execution only."""

from __future__ import annotations

from repro.model.steps import Step, TxnId
from repro.schedulers.base import Scheduler


class SerialScheduler(Scheduler):
    """Accepts a step only if its transaction is the active one.

    A transaction becomes active with its first step and stays active
    until its last step; interleaving anything rejects.  Requires the
    transaction system to know when a transaction ends: pass the number of
    steps per transaction, or let it run open-ended (any interleaving
    after the first step of another transaction rejects).
    """

    name = "serial"

    def __init__(self, steps_per_txn: dict[TxnId, int] | None = None) -> None:
        super().__init__()
        self._lengths = {} if steps_per_txn is None else steps_per_txn
        self._active: TxnId | None = None
        self._finished: set[TxnId] = set()

    def _reset(self) -> None:
        self._active = None
        self._finished = set()

    def _accept(self, step: Step) -> bool:
        if step.txn in self._finished:
            return False
        if self._active is not None and step.txn != self._active:
            # Another transaction may start only if the active one is done.
            return False
        self._active = step.txn
        if self._completes(step.txn):
            self._finished.add(step.txn)
            self._active = None
        self._count(step.txn)
        return True
