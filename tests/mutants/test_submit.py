"""A mutant of the single-version half of ``Scheduler.submit``.

For a scheduler that does not choose versions (2PL, SGT, serial),
``submit`` records the standard source itself: the position of each
entity's last accepted write, journaled (for a journaled scheduler) so
a truncate restores it.  ``forget-last-write-inverse`` overwrites
``_last_write`` without journaling the old value.  After a truncate, a
later read is then served a write the truncate dropped, and
``truncate_then_continue`` must kill the mutant through ``observable``'s
check that the committed version function is the standard one — under
every journaled single-version scheduler: 2PL.  SGT keeps no journal
(its truncate re-derives the prefix), so the mutant cannot touch it.
"""

import traceback

import pytest

pytest.importorskip("hypothesis")
from hypothesis import find  # noqa: E402

from repro.schedulers.base import Scheduler  # noqa: E402

from tests.mutants.test_mvto import BUDGET  # noqa: E402
from tests.schedulers.test_truncate_model import (  # noqa: E402
    scripts,
    truncate_then_continue,
)

_submit = Scheduler.submit


def forget_last_write_inverse(sched, step):
    mark = len(sched._undo_log)
    accepted = _submit(sched, step)
    overwrite = sched._last_write.__setitem__
    journal = sched._undo_log
    journal[mark:] = [
        (fn, args) for fn, args in journal[mark:] if fn != overwrite
    ]
    return accepted


@pytest.fixture
def mutant(monkeypatch):
    monkeypatch.setattr(Scheduler, "submit", forget_last_write_inverse)


def killed_by_the_standard_source_check(kind):
    def killer(script):
        try:
            truncate_then_continue(kind, script)
        except AssertionError as error:
            frame = traceback.extract_tb(error.__traceback__)[-1]
            return frame.name == "observable"
        return False

    return killer


@pytest.mark.parametrize("kind", ["2pl"])
def test_the_mutant_is_killed(mutant, kind):
    # ``find`` raises ``NoSuchExample`` if the mutant survives the budget.
    find(scripts(), killed_by_the_standard_source_check(kind),
         settings=BUDGET)

