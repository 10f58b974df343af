"""A mutant of 2PL's step kernel, killed by a named check.

``TwoPhaseLocking._accept`` decides first and mutates after: it checks
both lock conflicts before it takes a lock.  ``read-lock-before-check``
is the real method recompiled (``test_audit.mutated``) so that a read
takes its shared lock before the write-lock check.  Every decision stays
the same, and ``submit`` unwinds the journaled lock of a rejected read,
so no run and no submit-level snapshot can tell.  What kills the mutant
is ``a_rejected_step_left_a_trace`` (the whole scheduler state before
and after each rejected ``_accept``) over ``test_truncate_model.
scripts()``: the rejected read's lock is still there when ``_accept``
returns.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import find, settings  # noqa: E402
from hypothesis.errors import NoSuchExample  # noqa: E402

from repro.schedulers import TwoPhaseLocking  # noqa: E402

from tests.mutants.test_audit import mutated  # noqa: E402
from tests.mutants.test_mvto import BUDGET  # noqa: E402
from tests.schedulers.test_step_models import (  # noqa: E402
    a_rejected_step_left_a_trace,
)
from tests.schedulers.test_truncate_model import scripts  # noqa: E402

#: ``read-lock-before-check``: a read's shared lock taken before the
#: write-lock check (and again, a no-op, after it).
READ_LOCK_BEFORE_CHECK = (
    "holder = self._write_locks.get(entity)",
    "if step.is_read:\n"
    "        self._add(self._setdefault(self._read_locks, entity, set()), txn)\n"
    "    holder = self._write_locks.get(entity)",
)


def killed_by_the_rejected_step_check(script):
    return a_rejected_step_left_a_trace("2pl", script)


def install(patch, mutate=True):
    old, new = READ_LOCK_BEFORE_CHECK
    patch.setattr(TwoPhaseLocking, "_accept", mutated(
        TwoPhaseLocking._accept, old, new if mutate else old
    ))


def test_the_lock_mutant_is_killed(monkeypatch):
    install(monkeypatch)
    # ``find`` raises ``NoSuchExample`` if the mutant survives the budget.
    find(scripts(), killed_by_the_rejected_step_check, settings=BUDGET)


def test_the_rejected_step_check_passes_the_recompiled_site(monkeypatch):
    """A check that fired on correct code would kill every mutant; the
    site recompiled unmutated must survive a search as long."""
    install(monkeypatch, mutate=False)
    with pytest.raises(NoSuchExample):
        find(scripts(), killed_by_the_rejected_step_check,
             settings=settings(BUDGET, max_examples=200))
