"""Gone: a reader of a logic-aborted writer re-binds during execution.

:meth:`repro.planner.executor.PlanExecutor._run_one` re-binds a read
whose source is poisoned to the next version down the chain and runs
on, so no transaction runs twice and settle has no re-execution pass.
``benchmarks/perf/perf_layers.py`` still resolves
``reexecute_poisoned``; the benchmark-only PR drops that target and
deletes this module.
"""


def reexecute_poisoned(*args, **kwargs) -> None:
    """Never called."""
