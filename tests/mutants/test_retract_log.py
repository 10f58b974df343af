"""Mutants of the last-write fallback in ``Scheduler._retract_log``.

For a scheduler that does not choose versions (2PL, SGT, serial),
``submit`` records the standard source itself: the position of each
entity's last accepted write.  When a retraction removes that write,
``_retract_log`` falls back to the entity's last surviving write,
scanning back past tombstones (``_fall_back``).

* ``forget-last-write`` drops the entry instead, so a later read is
  served the initial version although a surviving write precedes it;
* ``fall-back-lands-on-tombstone`` stops the scan at the first
  tombstone it meets, as if it were a write, so a later read is served
  a retracted position.

``retract_then_continue`` must kill each mutant through ``observable``'s
check that the committed version function is the standard one — under
both single-version engine schedulers, 2PL and SGT.  The sites
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

#: mutant -> (patched method, ``(old, new)`` edit).
MUTANTS = {
    # No fallback, as if no surviving write preceded.
    "forget-last-write": (
        "_retract_log",
        ("self._fall_back(last_write, step.entity, position)",
         "del last_write[step.entity]"),
    ),
    # The scan takes the first tombstone for the write it looks for.
    "fall-back-lands-on-tombstone": (
        "_fall_back",
        ("continue  # a tombstone is no write",
         "table[entity] = earlier; return"),
    ),
}


def install(patch, name, mutate=True):
    attribute, (old, new) = MUTANTS[name]
    patch.setattr(Scheduler, attribute, mutated(
        getattr(Scheduler, attribute), old, new if mutate else old
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
@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_the_mutant_is_killed(name, kind, monkeypatch):
    install(monkeypatch, name)
    # ``find`` raises ``NoSuchExample`` if the mutant survives the budget.
    find(retraction_scripts(), killed_by_the_standard_source_check(kind),
         settings=BUDGET)


@pytest.mark.parametrize("kind", ["2pl", "sgt"])
@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_the_check_passes_the_recompiled_site(name, kind, monkeypatch):
    install(monkeypatch, name, mutate=False)
    with pytest.raises(NoSuchExample):
        find(retraction_scripts(), killed_by_the_standard_source_check(kind),
             settings=settings(BUDGET, max_examples=200))
