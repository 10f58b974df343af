"""Parallel shard runtime with epoch-batched group commit.

Executes transaction streams across per-shard conflict domains in
parallel — the scaling layer the online engine (:mod:`repro.engine`)
was built to host.  Partitionable schedulers (MVTO, SI) run one
scheduler instance per shard, primed with a global transaction order;
lock-table schedulers (2PL, 2V2PL, SGT) run through a shared conflict
domain (:mod:`repro.runtime.shared`).  Cross-shard transactions commit
atomically via an all-shards-vote protocol, and durable commits are
batched per epoch by :mod:`repro.runtime.group_commit` under the
engine's recoverability rule.  See :mod:`repro.runtime.dispatch` for
the execution model.
"""

from repro.runtime.dispatch import ShardRuntime, TicketState, TxnTicket
from repro.runtime.group_commit import GroupCommitLog
from repro.runtime.metrics import GroupCommitStats, RuntimeMetrics
from repro.runtime.shared import DomainPlan, plan_domains
from repro.runtime.worker import FlushRendezvous, ShardWorker, WorkerFuture

__all__ = [
    "ShardRuntime",
    "TicketState",
    "TxnTicket",
    "GroupCommitLog",
    "GroupCommitStats",
    "RuntimeMetrics",
    "DomainPlan",
    "plan_domains",
    "FlushRendezvous",
    "ShardWorker",
    "WorkerFuture",
]
