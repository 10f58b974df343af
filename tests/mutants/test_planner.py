"""Mutants of the planner, each killed by a named check.

A mutant is a wrong planner function, monkeypatched in by a fixture
(never a switch in ``src``):

* ``rebind-stops-at-first-poisoned`` — ``PlanExecutor._rebind`` takes
  one ``latest_before`` step and serves whatever it lands on, so a read
  whose next version down is a second dead writer's slot is not walked
  past it (an abort chain);
* ``settle-keeps-dead-slot`` — ``BatchPlanner._settle`` skips
  ``store.remove`` for one logic-aborted slot of the batch;
* ``settle-keeps-aborted-slot`` — ``BatchPlanner._settle`` recompiled
  without its ``self.store.remove(slot)``, so every logic-aborted slot
  stays in the chain;
* ``walk-keeps-stale-slot`` — ``plan_batch`` recompiled without the
  statement that advances an entity's newest slot after a write, so a
  later read binds past that write;
* ``read-serves-unwritten`` — ``PlanExecutor._run_one`` recompiled
  without its pending check, so a read of a slot whose writer has not
  run is served the unwritten sentinel.

Each mutant names the check that kills it: the serial oracle of
``tests/planner/test_reexec_property.py`` (equal final state and
committed set), or the driver's own placeholder check (a settled batch
leaves no placeholder behind, else the named :class:`EngineError`
"undecided placeholders after settle"), each run over that file's
generated abort
workloads; the reference-model comparison of
``tests/planner/test_planning_model.py`` over its generated batches; or
``TestPendingSource`` of ``tests/planner/test_plan_executor.py`` — all
under a derandomized Hypothesis budget.  A mutant its check does not
kill fails its test: a gap to close, never an ``xfail``.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import find, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.engine.errors import EngineError  # noqa: E402
from repro.model.batching import ReadBinding  # noqa: E402
from repro.model.schedules import T_INIT  # noqa: E402
from repro.obs import Tracer  # noqa: E402
from repro.planner import BatchPlanner, PlanExecutor, planning  # noqa: E402

from tests.mutants.test_audit import mutated  # noqa: E402
from tests.mutants.test_mvto import BUDGET  # noqa: E402
from tests.planner import test_plan_executor  # noqa: E402
from tests.planner.test_planning_model import (  # noqa: E402
    naive_plan_batch,
    planned,
    planning_cases,
)
from tests.planner.test_reexec_property import (  # noqa: E402
    INITIAL_BALANCE,
    abort_workloads,
    committed_ids,
    serial_oracle,
)

_settle = BatchPlanner._settle


def rebind_one_step(executor, ptxn, index, dead, first_position):
    """``_rebind`` with its walk cut to a single step down the chain."""
    source = executor.store.latest_before(dead.entity, dead.position)
    in_batch = (
        source.position is not None and source.position >= first_position
    )
    bindings = ptxn.bindings
    old = bindings[index]
    bindings[index] = ReadBinding(
        old.txn, old.step_index, source,
        source.writer if in_batch else T_INIT,
    )
    ptxn.bind(bindings)
    return source


def settle_keeps_dead_slot(planner, batch):
    """``_settle`` with the first ``store.remove`` of the batch skipped
    (settle removes only logic-aborted transactions' slots)."""
    store = planner.store
    remove = store.remove
    skipped = []

    def remove_but_the_first(version):
        if skipped:
            remove(version)
        else:
            skipped.append(version)

    store.remove = remove_but_the_first
    try:
        return _settle(planner, batch)
    finally:
        del store.remove


def run(workload):
    accounts, stream, batch_size = workload
    tracer = Tracer(capacity=None)
    planner = BatchPlanner(
        initial={a: INITIAL_BALANCE for a in accounts}, n_workers=2,
        batch_size=batch_size, tracer=tracer,
    )
    planner.run(stream)
    return planner, tracer


def killed_by_serial_oracle(workload):
    """Final state or committed set differs from the serial oracle."""
    accounts, stream, _ = workload
    initial = {a: INITIAL_BALANCE for a in accounts}
    state, committed = serial_oracle(initial, stream)
    planner, tracer = run(workload)
    return (
        {**initial, **planner.final_state()} != state
        or committed_ids(tracer) != sorted(committed)
    )


def killed_by_placeholder_check(workload):
    """The driver's settle found a placeholder left in the store."""
    try:
        run(workload)
    except EngineError as error:
        if "undecided placeholders after settle" in str(error):
            return True
        raise
    return False


def killed_by_reference_model(case):
    """The planner fixes another plan than the draft-and-merge model."""
    return planned(planning.plan_batch, *case) != planned(
        naive_plan_batch, *case
    )


def killed_by_pending_source_check(reached):
    """``TestPendingSource`` fails for a source ``reached`` as planned or
    by a re-bind."""
    check = test_plan_executor.TestPendingSource()
    try:
        check.test_pending_source_is_a_named_error_not_a_wait(reached)
    except AssertionError:
        return True
    return False


#: mutant -> (the patched class or module, attribute, the wrong function
#: or the ``(old, new)`` source edit that recompiles the real one wrong,
#: the cases its check runs over, the check that kills it).
MUTANTS = {
    "rebind-stops-at-first-poisoned": (
        PlanExecutor, "_rebind", rebind_one_step,
        abort_workloads(), killed_by_serial_oracle,
    ),
    "settle-keeps-dead-slot": (
        BatchPlanner, "_settle", settle_keeps_dead_slot,
        abort_workloads(), killed_by_placeholder_check,
    ),
    "settle-keeps-aborted-slot": (
        BatchPlanner, "_settle", ("self.store.remove(slot)", "pass"),
        abort_workloads(), killed_by_placeholder_check,
    ),
    "walk-keeps-stale-slot": (
        planning, "plan_batch", ("walk.source = slot\n", "pass\n"),
        planning_cases, killed_by_reference_model,
    ),
    "read-serves-unwritten": (
        PlanExecutor, "_run_one", ("raise _undecided(source, txn)", "pass"),
        st.sampled_from(["as-planned", "by-rebind"]),
        killed_by_pending_source_check,
    ),
}


def install(patch, name, mutate=True):
    """Set mutant ``name`` on its owner — or, with ``mutate=False``, its
    site recompiled unmutated (a hand-written mutant's site is left
    alone) — and return its cases and check."""
    owner, attribute, wrong, cases, killer = MUTANTS[name]
    if isinstance(wrong, tuple):
        old, new = wrong
        patch.setattr(owner, attribute, mutated(
            getattr(owner, attribute), old, new if mutate else old
        ))
    elif mutate:
        patch.setattr(owner, attribute, wrong)
    return cases, killer


@pytest.fixture(params=sorted(MUTANTS))
def mutant(request, monkeypatch):
    """Install one mutant; yields its cases and the check that must
    kill it."""
    return install(monkeypatch, request.param)


def test_the_mutant_is_killed(mutant):
    # ``find`` raises ``NoSuchExample`` if the mutant survives the budget.
    cases, killer = mutant
    find(cases, killer, settings=BUDGET)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_no_check_fires_on_the_real_planner(name, monkeypatch):
    """A check that fired on correct code would kill every mutant.  A
    recompiled site runs recompiled unmutated, so that a kill is the
    mutation's doing, not the recompile's."""
    cases, killer = install(monkeypatch, name, mutate=False)

    @given(cases)
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def fires(case):
        assert not killer(case)

    fires()
