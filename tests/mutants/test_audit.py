"""Mutants of the auditor's join and tier-0 replay, and of the engine's
commit record, each killed by a named check.

A mutant is the real function recompiled with one condition bent,
monkeypatched in by a fixture (never a switch in ``src``):

* ``replay-skips-pin`` — :func:`~repro.audit.auditor.
  replays_claimed_order` no longer compares a read's pinned source with
  the last writer the commit order puts before it;
* ``replay-ignores-install-order`` — the replay drops ``found[1] > at``:
  a source whose first write of the entity comes after the read passes;
* ``join-skips-stale-base`` — the join never flags a base read that
  bypasses a newer committed version;
* ``join-reads-before-index`` — the join without its write pre-index: a
  read sees only the writes of transactions committed up to its own, as
  a join that indexed writes while it walked the commits would, so a
  reader committed before its source reports ``missing-write``;
* ``commit-pins-latest`` — the engine's ``txn.commit`` record pins each
  read to ``store.latest(entity)`` at commit, not the version the read
  was served at submit.

Each mutant names the check that kills it: the reference pipeline of
``tests/audit/test_join_model.py`` over its generated streams, under a
derandomized Hypothesis budget; a fixture of
``tests/audit/test_adversarial.py``; such a fixture's forged stream
emitted through a :class:`~repro.obs.Tracer` to a subscribed auditor; or
a row of ``tests/audit/test_clean_runs.py``'s audited real runs.
A mutant its check does not kill fails its test: a gap to close, never
an ``xfail``.
"""

import __future__
import inspect
import textwrap

import pytest

pytest.importorskip("hypothesis")
from hypothesis import find, given, settings  # noqa: E402
from hypothesis.errors import NoSuchExample  # noqa: E402

from repro.audit import Auditor, auditor, reconstruct  # noqa: E402
from repro.engine.engine import OnlineEngine  # noqa: E402
from repro.obs import BEGIN, END, Tracer  # noqa: E402

from tests.audit import test_adversarial, test_clean_runs  # noqa: E402
from tests.audit.test_join_model import (  # noqa: E402
    assert_same_audit,
    streams,
)
from tests.mutants.test_mvto import BUDGET  # noqa: E402


def mutated(function, old: str, new: str):
    """``function`` recompiled from its source with ``old`` (which must
    occur exactly once) replaced by ``new``, over a copy of its module's
    globals; line numbers stay those of the file.  A method's source is
    dedented, and the result is a plain function to set on the class."""
    lines, first = inspect.getsourcelines(function)
    source = textwrap.dedent("".join(lines))
    assert source.count(old) == 1, f"mutation site moved: {old!r}"
    namespace = dict(vars(inspect.getmodule(function)))
    exec(compile(
        "\n" * (first - 1) + source.replace(old, new),
        inspect.getsourcefile(function), "exec",
        flags=__future__.annotations.compiler_flag, dont_inherit=True,
    ), namespace)
    return namespace[function.__name__]


def _fails(check, *args) -> bool:
    try:
        check(*args)
    except AssertionError:
        return True
    return False


def killed_by_reference_pipeline() -> bool:
    """Some generated stream audits differently from the reference."""
    try:
        find(streams(), lambda events: _fails(assert_same_audit, events),
             settings=BUDGET)
    except NoSuchExample:
        return False
    return True


def live_audit(events, dropped: int = 0):
    """The report of an auditor subscribed to a tracer that emits
    ``events`` one by one, as a run would."""
    tracer = Tracer(capacity=0)
    live = Auditor.attach(tracer)
    for event in events:
        emit = {BEGIN: tracer.begin, END: tracer.end}.get(
            event.ph, tracer.instant
        )
        emit(event.cat, event.name, event.track, **event.args)
    return live.finish(dropped=dropped)


def killed_by_adversarial_fixture(name: str, *, live: bool = False):
    """The named ``TestSyntheticViolations`` fixture fails — with its
    stream audited post-hoc, or emitted live (``live``)."""

    def killer() -> bool:
        fixtures = test_adversarial.TestSyntheticViolations()
        with pytest.MonkeyPatch.context() as patch:
            if live:
                patch.setattr(test_adversarial, "audit_events", live_audit)
            return _fails(getattr(fixtures, name))

    killer.__name__ = f"killed_by_{'live_' if live else ''}{name}"
    return killer


def killed_by_clean_audit(mode: str, scenario: str, scheduler: str):
    """The audited real run of ``test_clean_audit``'s row fails."""

    def killer() -> bool:
        return _fails(
            test_clean_runs.TestEveryScenarioEveryMode().test_clean_audit,
            mode, scenario, scheduler,
        )

    killer.__name__ = f"killed_by_clean_audit_{mode}_{scenario}_{scheduler}"
    return killer


#: the read op the mutated commit record carries: the entity's latest
#: version at commit, whatever the read was served.
_LATEST_AT_COMMIT = (
    "ops=[op if len(op) == 2 else ("
    "op[0], self.store.latest(op[0]).position, "
    "T_INIT if self.store.latest(op[0]).position is None "
    "else str(self.store.latest(op[0]).writer)) "
    "for op in attempt.ops],"
)

#: mutant -> (module or class, function name, condition, its mutation,
#: the check that kills it).
MUTANTS = {
    "replay-skips-pin": (
        auditor, "replays_claimed_order",
        "elif source != found[0] or found[1] > at:",
        "elif found[1] > at:",
        killed_by_reference_pipeline,
    ),
    "replay-ignores-install-order": (
        auditor, "replays_claimed_order",
        "elif source != found[0] or found[1] > at:",
        "elif source != found[0]:",
        killed_by_adversarial_fixture(
            "test_not_serializable_source_installs_after_the_read"
        ),
    ),
    "join-skips-stale-base": (
        reconstruct, "_join",
        "if newest is not None and newest != pos:",
        "if False:",
        killed_by_adversarial_fixture("test_stale_base_read", live=True),
    ),
    "join-reads-before-index": (
        reconstruct, "_join",
        "elif pos in seg_writes:",
        "elif pos in seg_writes and rank[seg_writes[pos][0]] <= rank[txn]:",
        killed_by_adversarial_fixture(
            "test_commit_order_reader_before_source"
        ),
    ),
    "commit-pins-latest": (
        OnlineEngine, "_commit",
        "ops=attempt.ops,",
        _LATEST_AT_COMMIT,
        killed_by_clean_audit("serial", "bank", "mvto"),
    ),
}


@pytest.fixture(params=sorted(MUTANTS))
def mutant(request, monkeypatch):
    """Install one mutant; yields the check that must kill it."""
    module, name, old, new, killer = MUTANTS[request.param]
    monkeypatch.setattr(
        module, name, mutated(getattr(module, name), old, new)
    )
    return killer


def test_the_mutant_is_killed(mutant):
    assert mutant(), f"{mutant.__name__} did not kill the mutant"


@given(streams())
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_no_check_fires_on_the_real_audit(events):
    """A check that fired on correct code would kill every mutant.  Run
    on the mutation sites recompiled unmutated, so that a kill is the
    mutation's doing, not the recompile's."""
    sites = {
        (module, name): old for module, name, old, *_ in MUTANTS.values()
    }
    with pytest.MonkeyPatch.context() as patch:
        for (module, name), old in sites.items():
            patch.setattr(
                module, name, mutated(getattr(module, name), old, old)
            )
        assert not _fails(assert_same_audit, events)
        for *_, killer in MUTANTS.values():
            if killer is not killed_by_reference_pipeline:
                assert not killer()
