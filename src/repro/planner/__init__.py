"""Abort-free epoch batch planner: plan-then-execute MVCC.

The ``planner`` and ``pipelined`` execution modes, after the serial engine
(:mod:`repro.engine`) and the parallel shard runtime
(:mod:`repro.runtime`).  Following Faleiro & Abadi's batched
multiversion design, each epoch's batch of transactions is *planned*
before anything executes — a total timestamp order is fixed, every
write reserves a placeholder version at its final chain position, and
every read is bound to its exact source version — so the execution
phase has zero concurrency-control aborts by construction: reads of
unpublished slots wait (Larson-style commit dependencies) instead of
aborting, and only program-raised *logic* aborts exist, cascading along
the dependency edges the plan already knows.  See
:mod:`repro.planner.planning`, :mod:`repro.planner.executor` and
:mod:`repro.planner.driver` for the three phases; the driver's
``lookahead`` is how many batches planning runs ahead of execution (0 —
the ``planner`` mode; 1 or more — the ``pipelined`` mode, which plans
batch *k+1* while batch *k* executes).
"""

from repro.planner.driver import BatchPlanner
from repro.planner.executor import (
    CASCADE,
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
    "CASCADE",
    "COMMITTED",
    "LOGIC_ABORT",
    "ExecutionOutcome",
    "PlanExecutor",
    "verify_settled",
    "PlannerMetrics",
    "plan_batch",
]
