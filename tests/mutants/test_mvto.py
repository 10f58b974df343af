"""Mutants of MVTO's step kernel, each killed by a named check.

A mutant is a wrong ``MVTOScheduler._accept``, monkeypatched in by a
fixture (never a switch in ``src``).  Each wraps the real method and
bends one thing it sees or leaves behind:

* ``first-below`` — PR 22's bug: the write check reads the *first*
  version of the last older writer, not its last (the one its younger
  readers are recorded on);
* ``no-r-timestamp`` — writes ignore ``max_reader_ts``: the
  ``R-timestamp`` rejection is gone.

Each names the check that kills it: ``drive_both`` against
``NaiveMVTO`` (the step model), run over
``test_truncate_model.scripts()`` under a derandomized Hypothesis
budget.  A mutant its check does not kill fails its test: a gap to
close, never an ``xfail``.

Three more are the real method recompiled with one edit
(``test_audit.mutated``).  Two are killed by ``retract_then_continue``
(retract against truncate + re-submit) over ``retraction_scripts()``:

* ``retract-keeps-r-timestamp`` — ``retract`` drops a doomed read from
  its version's readers but leaves the version's ``max_reader_ts`` at
  that read's timestamp;
* ``reissue-freed-timestamp`` — ``_accept`` issues a fresh timestamp as
  ``len(timestamps)``, which after a retraction is a survivor's.

One is killed by ``a_rejected_step_left_a_trace`` (the state before and
after each rejected ``_accept``) over ``scripts()``.  Nothing unwinds
what a rejected step stored:

* ``timestamp-before-check`` — ``_accept`` stores a fresh timestamp
  before the write check, so a rejected newcomer keeps it.
"""

from bisect import bisect_right

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, find, settings  # noqa: E402
from hypothesis.errors import NoSuchExample  # noqa: E402

from repro.schedulers import MVTOScheduler  # noqa: E402

from tests.schedulers.test_step_models import (  # noqa: E402
    NaiveMVTO,
    a_rejected_step_left_a_trace,
    build,
    drive_both,
)
from tests.schedulers.test_truncate_model import (  # noqa: E402
    retract_then_continue,
    retraction_scripts,
    scripts,
)

_accept = MVTOScheduler._accept


def first_below(sched, step):
    pair = sched._chains.get(step.entity)
    if step.is_read or pair is None:
        return _accept(sched, step)
    keys, chain = pair
    stamps = sched._timestamps
    ts = stamps.get(step.txn, sched._primed.get(step.txn, sched._clock))
    idx = bisect_right(keys, ts) - 1
    while keys[idx] == ts:
        idx -= 1
    first = idx
    while first > 0 and keys[first - 1] == keys[idx]:
        first -= 1
    # The check reads ``chain[idx]``: show it the first version's readers.
    checked, kept = chain[idx], chain[idx].max_reader_ts
    checked.max_reader_ts = chain[first].max_reader_ts
    try:
        return _accept(sched, step)
    finally:
        checked.max_reader_ts = kept


def no_r_timestamp(sched, step):
    pair = sched._chains.get(step.entity)
    if step.is_read or pair is None:
        return _accept(sched, step)
    versions = list(pair[1])
    kept = [version.max_reader_ts for version in versions]
    for version in versions:
        version.max_reader_ts = -1
    try:
        return _accept(sched, step)
    finally:
        for version, ts in zip(versions, kept):
            version.max_reader_ts = ts


def _fails(check, *args):
    try:
        check(*args)
    except (AssertionError, IndexError):
        return True
    return False


def killed_by_step_model(script):
    """``drive_both`` against ``NaiveMVTO``, arrival order and primed."""
    return any(
        _fails(drive_both, build(MVTOScheduler, primes),
               build(NaiveMVTO, primes), script)
        for primes in (None, script[1])
    )


def killed_by_retract_model(script):
    return any(
        _fails(retract_then_continue, kind, script)
        for kind in ("mvto", "mvto-primed")
    )


#: mutant -> (its ``_accept``, the check that kills it).
MUTANTS = {
    "first-below": (first_below, killed_by_step_model),
    "no-r-timestamp": (no_r_timestamp, killed_by_step_model),
}

BUDGET = settings(
    derandomize=True,
    database=None,
    max_examples=2000,
    phases=[Phase.generate],
)


@pytest.fixture(params=sorted(MUTANTS))
def mutant(request, monkeypatch):
    """Install one mutant; yields the check that must kill it."""
    accept, killer = MUTANTS[request.param]
    monkeypatch.setattr(MVTOScheduler, "_accept", accept)
    return killer


def test_the_mutant_is_killed(mutant):
    # ``find`` raises ``NoSuchExample`` if the mutant survives the budget.
    find(scripts(), mutant, settings=BUDGET)


def killed_by_the_rejected_step_check(script):
    return any(
        a_rejected_step_left_a_trace(kind, script)
        for kind in ("mvto", "mvto-primed")
    )


#: recompiled mutant -> (the patched method, the ``(old, new)`` edit).
RETRACT_MUTANTS = {
    "retract-keeps-r-timestamp": (
        "retract", ("version.max_reader_ts = max(version.readers, default=-1)",
                    "pass"),
    ),
    "reissue-freed-timestamp": (
        "_accept", ("self._primed.get(txn, self._clock)",
                    "self._primed.get(txn, len(timestamps))"),
    ),
}

#: ``timestamp-before-check``: a fresh timestamp stored before the write
#: check (and not again after it).
TIMESTAMP_BEFORE_CHECK = (
    "_accept", ("if not is_read:",
                "if fresh:\n"
                "        timestamps[txn] = ts\n"
                "        self._clock += 1\n"
                "        fresh = False\n"
                "    if not is_read:"),
)


def install(patch, site, mutate=True):
    """Set the recompiled mutant at ``site`` (an ``(attribute, (old,
    new))`` pair) on ``MVTOScheduler`` — or, with ``mutate=False``, its
    site recompiled unmutated."""
    # Imported here: test_audit takes BUDGET from this module.
    from tests.mutants.test_audit import mutated

    attribute, (old, new) = site
    patch.setattr(MVTOScheduler, attribute, mutated(
        getattr(MVTOScheduler, attribute), old, new if mutate else old
    ))


@pytest.mark.parametrize("name", sorted(RETRACT_MUTANTS))
def test_the_retract_mutant_is_killed(name, monkeypatch):
    install(monkeypatch, RETRACT_MUTANTS[name])
    find(retraction_scripts(), killed_by_retract_model, settings=BUDGET)


@pytest.mark.parametrize("name", sorted(RETRACT_MUTANTS))
def test_the_retract_model_passes_the_recompiled_sites(name, monkeypatch):
    """A check that fired on correct code would kill every mutant; the
    sites recompiled unmutated must survive a search as long."""
    install(monkeypatch, RETRACT_MUTANTS[name], mutate=False)
    with pytest.raises(NoSuchExample):
        find(retraction_scripts(), killed_by_retract_model,
             settings=settings(BUDGET, max_examples=200))


def test_the_timestamp_mutant_is_killed(monkeypatch):
    install(monkeypatch, TIMESTAMP_BEFORE_CHECK)
    find(scripts(), killed_by_the_rejected_step_check, settings=BUDGET)


def test_the_rejected_step_check_passes_the_recompiled_site(monkeypatch):
    install(monkeypatch, TIMESTAMP_BEFORE_CHECK, mutate=False)
    with pytest.raises(NoSuchExample):
        find(scripts(), killed_by_the_rejected_step_check,
             settings=settings(BUDGET, max_examples=200))
