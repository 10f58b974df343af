"""Mutants of SGT's step kernel, each killed by a named check.

A mutant is a wrong ``SGTScheduler._accept``, monkeypatched in by a
fixture (never a switch in ``src``).  Each wraps the real method and
bends one thing it sees or leaves behind:

* ``no-rw-arc`` — a write ignores the entity's readers, so the
  read-write arcs it should add are dropped;
* ``first-tail-only`` — only the first new tail is searched for a
  cycle, the others are taken on trust.

Each names the check that kills it: ``drive_both`` against ``NaiveSGT``
(the step model), run over ``test_truncate_model.scripts()`` under a
derandomized Hypothesis budget.  A mutant its check does not kill fails
its test: a gap to close, never an ``xfail``.

Two more are ``SGTScheduler.retract`` recompiled with one statement bent
(``test_audit.mutated``), killed by ``retract_then_continue`` (retract
against truncate + re-submit) over ``retraction_scripts()``:

* ``retract-keeps-arcs`` — a doomed node leaves the graph's node maps,
  but its arcs stay in its neighbours' adjacency;
* ``retract-keeps-reader-entry`` — a doomed transaction stays in the
  entities' reader lists.

And one is ``_accept`` recompiled, killed by
``a_rejected_step_left_a_trace`` (the state before and after each
rejected ``_accept``) over ``scripts()``.  Nothing unwinds what a
rejected step stored:

* ``entry-before-check`` — the step's reader/writer list entry is
  stored before the cycle search, so a rejected step leaves it there.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import find, settings  # noqa: E402
from hypothesis.errors import NoSuchExample  # noqa: E402

from repro.graphs.digraph import Digraph  # noqa: E402
from repro.schedulers import SGTScheduler  # noqa: E402

from tests.mutants.test_audit import mutated  # noqa: E402
from tests.mutants.test_mvto import BUDGET  # noqa: E402
from tests.schedulers.test_step_models import (  # noqa: E402
    NaiveSGT,
    a_rejected_step_left_a_trace,
    drive_both,
)
from tests.schedulers.test_truncate_model import (  # noqa: E402
    retract_then_continue,
    retraction_scripts,
    scripts,
)

_accept = SGTScheduler._accept


def no_rw_arc(sched, step):
    if step.is_read:
        return _accept(sched, step)
    # A write only adds to ``_writers``: hiding the readers is safe.
    readers = sched._readers.pop(step.entity, None)
    try:
        return _accept(sched, step)
    finally:
        if readers is not None:
            sched._readers[step.entity] = readers


def first_tail_only(sched, step):
    graph = sched._graph
    searched = []

    def search(tail, head):
        searched.append(tail)
        return len(searched) == 1 and Digraph.would_close_cycle(
            graph, tail, head
        )

    graph.would_close_cycle = search
    try:
        return _accept(sched, step)
    finally:
        del graph.would_close_cycle


def _fails(check, *args):
    try:
        check(*args)
    except AssertionError:
        return True
    return False


def killed_by_step_model(script):
    return _fails(drive_both, SGTScheduler(), NaiveSGT(), script)


def killed_by_retract_model(script):
    return _fails(retract_then_continue, "sgt", script)


#: mutant -> (its ``_accept``, the check that kills it).
MUTANTS = {
    "no-rw-arc": (no_rw_arc, killed_by_step_model),
    "first-tail-only": (first_tail_only, killed_by_step_model),
}


@pytest.fixture(params=sorted(MUTANTS))
def mutant(request, monkeypatch):
    """Install one mutant; yields the check that must kill it."""
    accept, killer = MUTANTS[request.param]
    monkeypatch.setattr(SGTScheduler, "_accept", accept)
    return killer


def test_the_mutant_is_killed(mutant):
    # ``find`` raises ``NoSuchExample`` if the mutant survives the budget.
    find(scripts(), mutant, settings=BUDGET)


#: recompiled ``retract`` mutant -> its ``(old, new)`` edit.
RETRACT_MUTANTS = {
    "retract-keeps-arcs": (
        "graph.remove_node(txn)",
        "del graph._succ[txn], graph._pred[txn]",
    ),
    "retract-keeps-reader-entry": (
        "if entry is not None and txn in entry:",
        "if entry is not None and txn in entry and bucket is self._writers:",
    ),
}


def install(patch, name, mutate=True):
    """Set recompiled mutant ``name`` as ``SGTScheduler.retract`` — or,
    with ``mutate=False``, the method recompiled unmutated."""
    old, new = RETRACT_MUTANTS[name]
    patch.setattr(SGTScheduler, "retract", mutated(
        SGTScheduler.retract, old, new if mutate else old
    ))


@pytest.mark.parametrize("name", sorted(RETRACT_MUTANTS))
def test_the_retract_mutant_is_killed(name, monkeypatch):
    install(monkeypatch, name)
    find(retraction_scripts(), killed_by_retract_model, settings=BUDGET)


@pytest.mark.parametrize("name", sorted(RETRACT_MUTANTS))
def test_the_retract_model_passes_the_recompiled_sites(name, monkeypatch):
    """A check that fired on correct code would kill every mutant; the
    method recompiled unmutated must survive a search as long."""
    install(monkeypatch, name, mutate=False)
    with pytest.raises(NoSuchExample):
        find(retraction_scripts(), killed_by_retract_model,
             settings=settings(BUDGET, max_examples=200))


#: ``entry-before-check``: the list entry stored before the search.
ENTRY_BEFORE_CHECK = (
    "for tail in tails:\n        if graph.would_close_cycle(tail, txn):",
    "bucket = self._readers if is_read else self._writers\n"
    "    bucket.setdefault(entity, [])\n"
    "    if txn not in bucket[entity]:\n"
    "        bucket[entity].append(txn)\n"
    "    for tail in tails:\n        if graph.would_close_cycle(tail, txn):",
)


def killed_by_the_rejected_step_check(script):
    return a_rejected_step_left_a_trace("sgt", script)


@pytest.mark.parametrize("mutate", [True, False], ids=["mutant", "unmutated"])
def test_the_rejected_step_check_kills_the_entry_mutant_only(
    mutate, monkeypatch
):
    """Killed when mutated; the site recompiled unmutated survives."""
    old, new = ENTRY_BEFORE_CHECK
    monkeypatch.setattr(SGTScheduler, "_accept", mutated(
        SGTScheduler._accept, old, new if mutate else old
    ))
    if mutate:
        find(scripts(), killed_by_the_rejected_step_check, settings=BUDGET)
    else:
        with pytest.raises(NoSuchExample):
            find(scripts(), killed_by_the_rejected_step_check,
                 settings=settings(BUDGET, max_examples=200))
