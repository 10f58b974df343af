"""Mutants of the auditor's join and tier-0 replay, each killed by a named
check.

A mutant is the real function recompiled with one condition bent,
monkeypatched in by a fixture (never a switch in ``src``):

* ``replay-skips-pin`` — :func:`~repro.audit.auditor.
  replays_claimed_order` no longer compares a read's pinned source with
  the last writer the commit order puts before it;
* ``replay-ignores-install-order`` — the replay drops ``found[1] > at``:
  a source whose first write of the entity comes after the read passes;
* ``seqless-covers-engine-commit`` — the join's set of seq-less
  (planner) commits also takes txns committed *with* a seq, so an open
  attempt of a txn whose other attempt committed is not flagged;
* ``join-skips-stale-base`` — the join never flags a base read that
  bypasses a newer committed version.

Each mutant names the check that kills it: the reference pipeline of
``tests/audit/test_join_model.py`` over its generated streams, under a
derandomized Hypothesis budget; a fixture of
``tests/audit/test_adversarial.py``; or such a fixture's forged stream
emitted through a :class:`~repro.obs.Tracer` to a subscribed auditor.
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
from repro.obs import BEGIN, END, Tracer  # noqa: E402

from tests.audit import test_adversarial  # noqa: E402
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


#: mutant -> (module, function name, condition, its mutation, the
#: check that kills it).
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
    "seqless-covers-engine-commit": (
        reconstruct, "_join",
        "seqless = {txn for txn, seq in commits if seq is None}",
        "seqless = {txn for txn, seq in commits}",
        killed_by_reference_pipeline,
    ),
    "join-skips-stale-base": (
        reconstruct, "_join",
        "if newest is not None and newest != pos:",
        "if False:",
        killed_by_adversarial_fixture("test_stale_base_read", live=True),
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
