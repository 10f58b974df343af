"""Mutants of 2PL's, SI's and 2V2PL's kernels, each killed by a named check.

Each is the real method recompiled with one edit (``test_audit.mutated``)
and comes with a control: the same site recompiled unmutated must survive
a search as long.  Every scheduler here decides first and mutates after,
and retracts an aborted transaction in place.

Killed by ``a_rejected_step_left_a_trace`` (the whole scheduler state
before and after each rejected ``_accept``) over
``test_truncate_model.scripts()`` — nothing unwinds a rejected step, so
what it stored stays:

* 2PL ``read-lock-before-check`` — a read takes its shared lock before
  the write-lock check.  The step's decision stays the same (that check
  does not read the read locks); the rejected read's lock stays.
* SI ``pending-before-check`` — a write is recorded as pending before
  first-committer-wins, so a write rejected at its transaction's last
  step stays pending.  (Storing the snapshot start before the check
  would be no mutant: a transaction's first step cannot be rejected,
  since nothing has committed after it.)
* 2V2PL ``active-before-check`` — the transaction is marked active
  before the write-write and certification checks, so a rejected first
  step leaves it active.

Killed by ``retract_then_continue`` (retract against truncate +
re-submit, with each scheduler's internals in its ``state``) over
``retraction_scripts()``:

* 2PL ``retract-keeps-lock`` — a doomed transaction is forgotten as a
  lock holder, but its locks are not released;
* SI ``retract-keeps-start`` — a survivor's snapshot start stays where
  it was when the positions below it move down;
* 2V2PL ``retract-keeps-doomed-commit`` — a doomed transaction's
  certified write stays an entity's committed version.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import find, settings  # noqa: E402
from hypothesis.errors import NoSuchExample  # noqa: E402

from repro.schedulers import (  # noqa: E402
    SnapshotIsolationScheduler,
    TwoPhaseLocking,
    TwoVersionTwoPL,
)

from tests.mutants.test_audit import mutated  # noqa: E402
from tests.mutants.test_mvto import BUDGET  # noqa: E402
from tests.schedulers.test_step_models import (  # noqa: E402
    a_rejected_step_left_a_trace,
)
from tests.schedulers.test_truncate_model import (  # noqa: E402
    retract_then_continue,
    retraction_scripts,
    scripts,
)

CLASSES = {
    "2pl": TwoPhaseLocking,
    "si": SnapshotIsolationScheduler,
    "2v2pl": TwoVersionTwoPL,
}

#: "kind-name" -> (patched method, ``(old, new)`` edit).  An ``_accept``
#: mutant is searched for by the rejected-step check, a ``retract``
#: mutant by the retract model.
MUTANTS = {
    # A read's shared lock taken before the write-lock check (and again,
    # a no-op, after it).
    "2pl-read-lock-before-check": (
        "_accept",
        ("holder = self._write_locks.get(entity)",
         "if step.op is _READ:\n"
         "        self._read_locks.setdefault(entity, set()).add(txn)\n"
         "    holder = self._write_locks.get(entity)"),
    ),
    "2pl-retract-keeps-lock": (
        "retract", ("self._release(txn)", "del held[txn]"),
    ),
    "si-pending-before-check": (
        "_accept",
        ("completes = self._completes(txn)",
         "if not is_read:\n"
         "        pending = self._pending_writes.setdefault(txn, pending)\n"
         "        pending[entity] = position\n"
         "    completes = self._completes(txn)"),
    ),
    "si-retract-keeps-start": (
        "retract", ("starts[txn] = moved_down(position, removed)", "pass"),
    ),
    "2v2pl-active-before-check": (
        "_accept",
        ("holder = uncommitted.get(entity)",
         "self._active.add(txn)\n"
         "    holder = uncommitted.get(entity)"),
    ),
    "2v2pl-retract-keeps-doomed-commit": (
        "retract",
        ("elif committed.get(entity) == position:", "elif False:"),
    ),
}


def install(patch, name, mutate=True):
    """Set mutant ``name`` on its class — or, with ``mutate=False``, its
    site recompiled unmutated.  Returns ``(scripts, killer)``: the
    generator to search and the check that must kill it."""
    kind = name.split("-")[0]
    cls = CLASSES[kind]
    attribute, (old, new) = MUTANTS[name]
    patch.setattr(cls, attribute, mutated(
        getattr(cls, attribute), old, new if mutate else old
    ))
    if attribute == "_accept":
        return scripts, lambda script: a_rejected_step_left_a_trace(
            kind, script
        )

    def killed_by_retract_model(script):
        try:
            retract_then_continue(kind, script)
        except AssertionError:
            return True
        return False

    return retraction_scripts, killed_by_retract_model


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_the_mutant_is_killed(name, monkeypatch):
    generate, killer = install(monkeypatch, name)
    # ``find`` raises ``NoSuchExample`` if the mutant survives the budget.
    find(generate(), killer, settings=BUDGET)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_the_check_passes_the_recompiled_site(name, monkeypatch):
    """A check that fired on correct code would kill every mutant; the
    site recompiled unmutated must survive a search as long."""
    generate, killer = install(monkeypatch, name, mutate=False)
    with pytest.raises(NoSuchExample):
        find(generate(), killer, settings=settings(BUDGET, max_examples=200))
