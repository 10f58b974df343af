"""Gone: the planner driver runs one plan → execute → settle loop
(:class:`repro.planner.driver.BatchPlanner`) and plans nothing ahead.

``benchmarks/perf/perf_layers.py`` still resolves ``PipelinedPlanner``;
the benchmark-only PR drops that target and deletes this module.
"""


class PipelinedPlanner:
    """Never constructed."""
