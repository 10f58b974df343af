"""Abort-free epoch batch planner: plan-then-execute MVCC.

The ``planner`` and ``pipelined`` execution modes, after the serial engine
(:mod:`repro.engine`) and the parallel shard runtime
(:mod:`repro.runtime`).  Following Faleiro & Abadi's batched
multiversion design, each epoch's batch of transactions is *planned*
before anything executes — a total timestamp order is fixed, every
write reserves a placeholder version at its final chain position, and
every read is bound to its exact source version — so the execution
phase has zero concurrency-control aborts by construction: a read of
another transaction's slot is a commit dependency (Larson-style), not a
rejection, and execution in timestamp order meets every source already
decided.  Only program-raised *logic* aborts exist — a reader of a
logic-aborted writer re-binds to the next version down the chain and
runs on, so every planned transaction runs exactly once.  Everything
runs on the caller's thread, one batch at a time: plan, execute,
settle.  See :mod:`repro.planner.planning`, :mod:`repro.planner.executor`
and :mod:`repro.planner.driver` for the three phases.  ``pipelined`` is
the same driver under its former pipelining name; its ``lookahead``
option is echoed and selects nothing.
"""

from repro.planner.driver import BatchPlanner
from repro.planner.executor import (
    COMMITTED,
    LOGIC_ABORT,
    ExecutionOutcome,
    PlanExecutor,
    verify_settled,
)
from repro.planner.metrics import PlannerMetrics
from repro.planner.planning import plan_batch

__all__ = [
    "BatchPlanner",
    "COMMITTED",
    "LOGIC_ABORT",
    "ExecutionOutcome",
    "PlanExecutor",
    "verify_settled",
    "PlannerMetrics",
    "plan_batch",
]
