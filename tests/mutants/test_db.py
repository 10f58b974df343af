"""Mutants of where ``repro.db`` reads ``deterministic``, each killed by
a named check.

The flag is read in two places, nowhere below them: the adapter that
builds a driver points the tracer at its tick counter, and
:meth:`~repro.db.report.RunReport.report` prints the wall-clock txn/s
only for a run that is not deterministic.  A mutant is the real function
recompiled with one statement changed, monkeypatched in by a fixture
(never a switch in ``src``):

* ``adapter-skips-tick-clock`` — ``PlannerBackend._execute`` never
  installs the tick clock, so a deterministic planner run's trace keeps
  the wall clock;
* ``report-rates-deterministic-run`` — ``RunReport.report`` prints the
  txn/s line whatever the run.

Each mutant names the check that kills it:
``TestDeterministicByteIdentity`` of ``tests/obs/test_trace_modes.py``
(equal seeds, equal trace bytes), or the CLI's
``test_deterministic_text_report_is_byte_identical`` of
``tests/test_cli.py``.  A mutant its check does not kill fails its
test: a gap to close, never an ``xfail``.
"""

import pytest

from repro.db.backends import PlannerBackend
from repro.db.report import RunReport

from tests import test_cli
from tests.mutants.test_audit import _fails, mutated
from tests.obs import test_trace_modes


def killed_by_trace_byte_identity(capsys) -> bool:
    """Two equal-seed planner-family traces differ."""
    fixtures = test_trace_modes.TestDeterministicByteIdentity()
    check = fixtures.test_equal_seeds_equal_traces
    return any(_fails(check, mode) for mode in ("planner", "pipelined"))


def killed_by_text_report_byte_identity(capsys) -> bool:
    """A deterministic CLI report differs between equal-seed runs, or
    shows a txn/s figure."""
    fixtures = test_cli.TestRun()
    check = fixtures.test_deterministic_text_report_is_byte_identical
    return any(
        _fails(check, mode, capsys)
        for mode in ("serial", "parallel", "planner", "pipelined")
    )


#: mutant -> (class, method name, statement, its mutation, the check
#: that kills it).
MUTANTS = {
    "adapter-skips-tick-clock": (
        PlannerBackend, "_execute",
        "tracer.use_clock(lambda: engine.ticks)",
        "pass",
        killed_by_trace_byte_identity,
    ),
    "report-rates-deterministic-run": (
        RunReport, "report",
        "if not self.deterministic:",
        "if True:",
        killed_by_text_report_byte_identity,
    ),
}


@pytest.fixture(params=sorted(MUTANTS))
def mutant(request, monkeypatch):
    """Install one mutant; yields the check that must kill it."""
    owner, name, old, new, killer = MUTANTS[request.param]
    monkeypatch.setattr(
        owner, name, mutated(getattr(owner, name), old, new)
    )
    return killer


def test_the_mutant_is_killed(mutant, capsys):
    assert mutant(capsys), f"{mutant.__name__} did not kill the mutant"


def test_no_check_fires_on_the_real_code(monkeypatch, capsys):
    """A check that fired on correct code would kill every mutant.  Run
    on the mutation sites recompiled unmutated, so that a kill is the
    mutation's doing, not the recompile's."""
    for owner, name, old, _, _ in MUTANTS.values():
        monkeypatch.setattr(
            owner, name, mutated(getattr(owner, name), old, old)
        )
    for *_, killer in MUTANTS.values():
        assert not killer(capsys), killer.__name__
