"""Mutants of the scenario generators, each killed by a named check.

A mutant is the real function recompiled with one statement bent,
monkeypatched in by a fixture (never a switch in ``src``):

* ``pick-repeats-accounts`` — ``ReadMostlyScenario._pick_distinct``
  draws each slot from its whole pool, without the filter that leaves
  out the accounts already picked, so an audit can read an account
  twice.

The check that kills it is the digest pin of
``tests/workloads/test_stream_determinism.py::TestPinnedDigests``: the
mutated stream no longer hashes to the digest recorded for it.  A
mutant its check does not kill fails its test: a gap to close, never an
``xfail``.
"""

import pytest

from repro.workloads.streams import ReadMostlyScenario

from tests.mutants.test_audit import mutated
from tests.workloads.test_stream_determinism import (
    PIN_SEEDS,
    STREAM_DIGESTS,
    stream_digest,
)

#: mutant -> (the patched class, attribute, the ``(old, new)`` source
#: edit that recompiles the real one wrong, the pinned case its check
#: runs over).
MUTANTS = {
    "pick-repeats-accounts": (
        ReadMostlyScenario, "_pick_distinct",
        ("[a for a in pool if a not in picked]", "list(pool)"),
        "read-mostly",
    ),
}


def killed_by_digest_pin(case):
    """Some pinned seed's stream hashes to another digest."""
    return any(
        stream_digest(case, seed) != STREAM_DIGESTS[case, seed]
        for seed in PIN_SEEDS
    )


def install(patch, name, mutate=True):
    """Set mutant ``name`` on its owner — or, with ``mutate=False``, its
    site recompiled unmutated — and return the case its check runs
    over."""
    owner, attribute, (old, new), case = MUTANTS[name]
    patch.setattr(owner, attribute, mutated(
        getattr(owner, attribute), old, new if mutate else old
    ))
    return case


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_the_mutant_is_killed(name, monkeypatch):
    assert killed_by_digest_pin(install(monkeypatch, name))


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_no_check_fires_on_the_real_generator(name, monkeypatch):
    """A recompiled site runs recompiled unmutated, so that a kill is
    the mutation's doing, not the recompile's."""
    assert not killed_by_digest_pin(install(monkeypatch, name, False))
