"""E13 — scheduler-fleet size: §5's fragmentation, measured.

No single deterministic multiversion scheduler accepts every MVSR
schedule (§4-§5).  OLS conflicts arise between schedules sharing a prefix
with incompatible continuations, so the natural universe is *all
interleavings of one transaction system*: how many jointly-OLS groups do
its MVSR interleavings fragment into?  The §4 system itself — the paper's
own counterexample — fragments into more than one group, and hotter
systems fragment further.
"""

from repro.model.enumeration import interleavings
from repro.model.parsing import parse_transaction
from repro.model.transactions import TransactionSystem
from repro.analysis.ols_cover import cover_report

SYSTEMS = {
    "§4 system": TransactionSystem.of(
        [
            parse_transaction("A", "R(x) W(x) R(y) W(y)"),
            parse_transaction("B", "R(x) R(y) W(y)"),
        ]
    ),
    "two counters": TransactionSystem.of(
        [
            parse_transaction("A", "R(x) W(x) R(y)"),
            parse_transaction("B", "R(x) W(x) R(y)"),
        ]
    ),
    "reader/writer": TransactionSystem.of(
        [
            parse_transaction("A", "W(x) W(y)"),
            parse_transaction("B", "R(x) R(y)"),
        ]
    ),
}


def test_bench_ols_cover(table_writer):
    universes = {
        name: list(interleavings(system))
        for name, system in SYSTEMS.items()
    }

    def run_cover():
        return {
            name: cover_report(schedules)
            for name, schedules in universes.items()
        }

    reports = run_cover()

    rows = [{"system": name, **report} for name, report in reports.items()]
    table_writer(
        "E13_ols_cover",
        "jointly-OLS groups covering all MVSR interleavings",
        rows,
    )
    by_name = {row["system"]: row for row in rows}
    # The paper's own system cannot be covered by one scheduler...
    assert by_name["§4 system"]["schedulers_needed"] > 1
    # ...while the plain reader/writer system can.
    assert by_name["reader/writer"]["schedulers_needed"] == 1
