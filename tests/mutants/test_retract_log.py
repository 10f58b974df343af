"""A mutant of the last-write fallback in ``Scheduler._retract_log``.

For a scheduler that does not choose versions (2PL, SGT, serial),
``submit`` records the standard source itself: the position of each
entity's last accepted write.  When a retraction removes that write,
``_retract_log`` falls back to the entity's last surviving write.
``forget-last-write`` drops the entry instead, so a later read is
served the initial version although a surviving write precedes it.
``retract_then_continue`` must kill the mutant through ``observable``'s
check that the committed version function is the standard one — under
both single-version engine schedulers, 2PL and SGT.  The site
recompiled unmutated must survive a search as long.
"""

import traceback

import pytest

pytest.importorskip("hypothesis")
from hypothesis import find, settings  # noqa: E402
from hypothesis.errors import NoSuchExample  # noqa: E402

from repro.schedulers.base import Scheduler  # noqa: E402

from tests.mutants.test_audit import mutated  # noqa: E402
from tests.mutants.test_mvto import BUDGET  # noqa: E402
from tests.schedulers.test_truncate_model import (  # noqa: E402
    retract_then_continue,
    retraction_scripts,
)

#: ``forget-last-write``: no fallback, as if no surviving write preceded.
FORGET_LAST_WRITE = (
    "self._fall_back(last_write, entity, position, gone)",
    "del last_write[entity]",
)


def install(patch, mutate=True):
    old, new = FORGET_LAST_WRITE
    patch.setattr(Scheduler, "_retract_log", mutated(
        Scheduler._retract_log, old, new if mutate else old
    ))


def killed_by_the_standard_source_check(kind):
    def killer(script):
        try:
            retract_then_continue(kind, script)
        except AssertionError as error:
            frame = traceback.extract_tb(error.__traceback__)[-1]
            return frame.name == "observable"
        return False

    return killer


@pytest.mark.parametrize("kind", ["2pl", "sgt"])
def test_the_mutant_is_killed(kind, monkeypatch):
    install(monkeypatch)
    # ``find`` raises ``NoSuchExample`` if the mutant survives the budget.
    find(retraction_scripts(), killed_by_the_standard_source_check(kind),
         settings=BUDGET)


@pytest.mark.parametrize("kind", ["2pl", "sgt"])
def test_the_check_passes_the_recompiled_site(kind, monkeypatch):
    install(monkeypatch, mutate=False)
    with pytest.raises(NoSuchExample):
        find(retraction_scripts(), killed_by_the_standard_source_check(kind),
             settings=settings(BUDGET, max_examples=200))
