"""The one planner driver with ``lookahead`` defaulting to 1."""

# benchmarks/perf/perf_layers.py still resolves this name; a follow-up
# benchmark-only PR drops that target and this module with it.

from repro.planner.driver import BatchPlanner


class PipelinedPlanner(BatchPlanner):
    def __init__(self, *args, lookahead: int = 1, **kwargs) -> None:
        super().__init__(*args, lookahead=lookahead, **kwargs)
