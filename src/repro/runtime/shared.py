"""Shared-conflict-state planning for non-partitionable schedulers.

Schedulers declare via :attr:`Scheduler.shard_partitionable` whether
their conflict state splits cleanly by entity shard.  MVTO and SI do:
their accept decisions compare accesses of one entity at a time, so N
per-shard instances primed with a common transaction order decide like
one global instance, and the runtime gives every worker its own.  2PL,
2V2PL and SGT do not: lock release, certification and graph acyclicity
couple entities across shards — their conflict state *is* one shared
lock table (or graph).

For those, the runtime collapses all concurrency control into a single
conflict domain: one engine, one scheduler, a store of one shard.
That is the honest rendering of a shared lock table in this codebase —
requests serialize at the table no matter how many workers front it, so
the runtime doesn't pretend otherwise.  :class:`LockedScheduler` is the
thin adapter making that shared instance safe to probe from other
threads (the dispatcher inspects scheduler state in tests and tooling)
while the owning worker mutates it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro.model.steps import Step, TxnId
from repro.schedulers.base import Scheduler


@dataclass(frozen=True)
class DomainPlan:
    """How many conflict domains the runtime runs for a scheduler."""

    requested_workers: int
    n_domains: int
    partitionable: bool
    scheduler_name: str

    @property
    def note(self) -> str:
        if self.partitionable:
            return (
                f"{self.scheduler_name}: conflict state partitioned into "
                f"{self.n_domains} shard domains"
            )
        return (
            f"{self.scheduler_name}: shared lock table — all concurrency "
            f"control serialized through 1 domain "
            f"(requested {self.requested_workers} workers)"
        )


def plan_domains(
    scheduler_factory: Callable[[dict], Scheduler], n_workers: int
) -> DomainPlan:
    """Decide the domain count by probing the factory's product."""
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    probe = scheduler_factory({})
    partitionable = bool(getattr(probe, "shard_partitionable", False))
    return DomainPlan(
        requested_workers=n_workers,
        n_domains=n_workers if partitionable else 1,
        partitionable=partitionable,
        scheduler_name=getattr(probe, "name", type(probe).__name__),
    )


class LockedScheduler(Scheduler):
    """Serialize every access to one shared scheduler behind an RLock.

    Wraps the single shared instance a non-partitionable scheduler runs
    as.  The owning worker already executes tasks one at a time, so the
    lock's job is to make *observers* (dispatcher-side probes, tests)
    see consistent state rather than to arbitrate writers.
    """

    shard_partitionable = False

    def __init__(self, inner: Scheduler) -> None:
        # Deliberately no super().__init__(): state lives in ``inner``;
        # this class is a locking proxy, not a second state holder.
        self._inner = inner
        self._mutex = threading.RLock()
        self.name = f"{inner.name}+lock"

    def submit(self, step: Step) -> bool:
        with self._mutex:
            return self._inner.submit(step)

    def _accept(self, step: Step) -> bool:  # pragma: no cover - via submit
        raise NotImplementedError("LockedScheduler delegates submit()")

    def reset(self) -> None:
        with self._mutex:
            self._inner.reset()

    def _reset(self) -> None:  # pragma: no cover - via reset
        raise NotImplementedError("LockedScheduler delegates reset()")

    def truncate(self, n: int) -> None:
        with self._mutex:
            self._inner.truncate(n)

    def prime_transaction(self, txn: TxnId, seq: int) -> None:
        with self._mutex:
            self._inner.prime_transaction(txn, seq)

    def clear_primes(self) -> None:
        with self._mutex:
            self._inner.clear_primes()

    def version_function(self):
        with self._mutex:
            return self._inner.version_function()

    def source_of_read(self, position: int):
        with self._mutex:
            return self._inner.source_of_read(position)

    @property
    def accepted_steps(self) -> list[Step]:
        with self._mutex:
            return list(self._inner.accepted_steps)

    @accepted_steps.setter
    def accepted_steps(self, value) -> None:  # pragma: no cover - defensive
        raise AttributeError("accepted_steps is owned by the inner scheduler")

    @property
    def dead(self) -> bool:
        with self._mutex:
            return self._inner.dead

    @dead.setter
    def dead(self, value) -> None:  # pragma: no cover - defensive
        raise AttributeError("dead is owned by the inner scheduler")


def locked_factory(
    base: Callable[[dict], Scheduler]
) -> Callable[[dict], Scheduler]:
    """Wrap a scheduler factory so its product is a :class:`LockedScheduler`."""

    def factory(lengths: dict) -> Scheduler:
        return LockedScheduler(base(lengths))

    return factory
