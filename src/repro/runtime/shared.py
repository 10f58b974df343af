"""Conflict-domain planning: how many domains a scheduler runs as.

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
the runtime doesn't pretend otherwise.  The shared scheduler needs no
lock: like every domain's state it is touched only inside tasks of its
:class:`~repro.runtime.worker.ShardWorker`, and tasks never overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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
