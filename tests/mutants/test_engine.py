"""A mutant of the online engine's commit path, killed by a named check.

``OnlineEngine.finish`` finalizes — commits every pending attempt whose
sources committed — unless the finishing attempt is held: a held
attempt commits nobody by finishing (``tests/engine/test_engine.py::
TestHeldFinish`` checks that skipping it changes no run).
``finish-never-finalizes`` is ``finish`` recompiled
(``test_audit.mutated``) with that guard bent so that no finish
finalizes.  A transaction with nothing to wait on then stays pending
after its last step, and ``tests/engine/test_engine.py::TestCommitPath::
test_every_scheduler_commits_a_serial_stream`` must kill the mutant.
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
