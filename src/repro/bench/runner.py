"""Benchmark execution: one deterministic run per case, one unit.

One code path for pytest, the CLI and CI: :func:`run_case` drains a
:class:`~repro.bench.suite.BenchCase` through the typed Database API
once and checks the scenario invariant.  Throughput is *committed
transactions per logical driver tick* — machine-independent and
byte-stable, so records are comparable across commits and CI runners.
A second run of a deterministic case reproduces the first by contract,
so there is nothing to repeat, warm up or aggregate; wall-clock
questions are measured outside the program, by ``benchmarks/perf``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.db import Database, RunReport

from repro.bench.suite import BenchCase, BenchSuite

#: the one throughput unit.
TICK_UNIT = "txn/tick"


def logical_ticks(report: RunReport) -> int:
    """The run's logical duration in driver ticks (every native metrics
    object carries the tick clock as ``metrics.ticks``)."""
    try:
        return report.metrics.ticks
    except AttributeError:
        raise TypeError(
            f"metrics object {type(report.metrics).__name__} exposes "
            "no tick clock (.ticks)"
        ) from None


def committed_throughput(report: RunReport) -> float:
    """Committed transactions per tick, rounded so records serialize
    stably."""
    ticks = logical_ticks(report)
    return round(report.committed / ticks, 6) if ticks else 0.0


@dataclass(frozen=True)
class CaseResult:
    """What measuring one case produced."""

    case: BenchCase
    #: carries the resolved config (``report.config``) the record echoes.
    report: RunReport
    #: stream length actually drained (the declared size, or the
    #: runner's override).
    txns: int

    @property
    def throughput(self) -> float:
        return committed_throughput(self.report)


def run_case(case: BenchCase, *, txns: int | None = None) -> CaseResult:
    """Measure ``case``.  ``txns`` overrides the declared stream length
    (smoke sizes); the run checks the scenario invariant."""
    n_txns = case.txns if txns is None else txns
    report = Database().run(
        case.scenario, case.run_config(), txns=n_txns,
        **dict(case.scenario_params),
    )
    if not report.invariant_ok:
        raise AssertionError(
            f"case {case.case_id!r}: scenario invariant violated"
        )
    return CaseResult(case=case, report=report, txns=n_txns)


def run_suite(
    suite: BenchSuite,
    *,
    txns: int | None = None,
    progress=None,
) -> list[CaseResult]:
    """Measure a suite case by case, in declaration order.

    ``progress`` is an optional callable invoked with each finished
    :class:`CaseResult` (the CLI's live line)."""
    results = []
    for case in suite.cases:
        result = run_case(case, txns=txns)
        if progress is not None:
            progress(result)
        results.append(result)
    return results
