"""The bench runner: one run per case, one unit, invariant checks."""

import pytest

from repro.bench import (
    committed_throughput,
    get_suite,
    logical_ticks,
    run_case,
    run_suite,
)
from repro.db import RunReport

SMOKE = get_suite("smoke")
SERIAL = SMOKE.case("bank/serial")


class TestRunCase:
    def test_returns_one_report_measured_in_ticks(self):
        result = run_case(SERIAL, txns=24)
        assert result.txns == 24
        report = result.report
        assert isinstance(report, RunReport) and report.deterministic
        assert logical_ticks(report) > 0
        assert committed_throughput(report) == pytest.approx(
            report.committed / logical_ticks(report), abs=1e-6
        )
        assert result.throughput == committed_throughput(report)

    def test_every_mode_exposes_the_tick_clock(self):
        # One attribute, no per-mode ladder: the planner family answers
        # through PlannerMetrics.ticks like the engine and the runtime.
        for case in SMOKE.cases:
            metrics = run_case(case, txns=12).report.metrics
            assert isinstance(metrics.ticks, int) and metrics.ticks > 0

    def test_logical_ticks_rejects_tickless_metrics(self):
        with pytest.raises(TypeError, match="tick"):
            logical_ticks(
                type("R", (), {"metrics": object()})()
            )


class TestRunSuite:
    def test_runs_every_case_in_declaration_order(self):
        seen = []
        results = run_suite(
            get_suite("e18"), txns=12, progress=seen.append
        )
        assert results == seen
        assert [r.case.case_id for r in results] == [
            c.case_id for c in get_suite("e18").cases
        ]
