"""Mutants of the online engine, each killed by a named check.

``OnlineEngine.finish`` finalizes — commits every pending attempt whose
sources committed — unless the finishing attempt is held: a held
attempt commits nobody by finishing (``tests/engine/test_engine.py::
TestHeldFinish`` checks that skipping it changes no run).
``finish-never-finalizes`` is ``finish`` recompiled
(``test_audit.mutated``) with that guard bent so that no finish
finalizes.  A transaction with nothing to wait on then stays pending
after its last step, and ``tests/engine/test_engine.py::TestCommitPath::
test_every_scheduler_commits_a_serial_stream`` must kill the mutant.

An abort leaves its steps in the epoch log as tombstones, and
``OnlineEngine.wants_epoch_close`` counts the live steps only, so aborts
do not move the epoch bounds.  ``epoch-close-counts-tombstones`` is that
property recompiled to count the log's length, tombstones and all;
``tests/engine/test_engine.py::TestEpochs::
test_tombstones_do_not_fill_the_log`` must kill it.
"""

import pytest

from repro.engine import OnlineEngine

from tests.engine import test_engine
from tests.mutants.test_audit import _fails, mutated

#: ``finish-never-finalizes``: the held-attempt guard made unconditional.
NEVER_FINALIZES = ("if not attempt.hold:", "if False:")


def killed_by_the_serial_commit_check() -> bool:
    # The module, not the class: a class imported here would be
    # collected (and run) a second time.
    commit_path = test_engine.TestCommitPath()
    return _fails(commit_path.test_every_scheduler_commits_a_serial_stream)


@pytest.mark.parametrize("mutate", [True, False], ids=["mutant", "unmutated"])
def test_the_serial_commit_check_kills_the_mutant_only(mutate, monkeypatch):
    """Killed when mutated; ``finish`` recompiled unmutated survives."""
    old, new = NEVER_FINALIZES
    monkeypatch.setattr(OnlineEngine, "finish", mutated(
        OnlineEngine.finish, old, new if mutate else old
    ))
    assert killed_by_the_serial_commit_check() == mutate


#: ``epoch-close-counts-tombstones``: the whole log fills the epoch.
COUNTS_TOMBSTONES = (
    "len(self.log) - self._retracted >= self.epoch_max_steps",
    "len(self.log) >= self.epoch_max_steps",
)


def killed_by_the_tombstone_check() -> bool:
    epochs = test_engine.TestEpochs()
    return any(
        _fails(epochs.test_tombstones_do_not_fill_the_log, k)
        for k in (1, 2, 3)
    )


@pytest.mark.parametrize("mutate", [True, False], ids=["mutant", "unmutated"])
def test_the_tombstone_check_kills_the_epoch_mutant_only(mutate, monkeypatch):
    """Killed when mutated; the property recompiled unmutated survives."""
    old, new = COUNTS_TOMBSTONES
    monkeypatch.setattr(OnlineEngine, "wants_epoch_close", mutated(
        OnlineEngine.wants_epoch_close.fget, old, new if mutate else old
    ))
    assert killed_by_the_tombstone_check() == mutate
