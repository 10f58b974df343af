"""Mutants of the multiversion store, each killed by a named check.

A mutant is the real method recompiled with one statement bent,
monkeypatched in by a fixture (never a switch in ``src``):

* ``dropped-miscounts-placeholders`` — ``MultiversionStore._dropped``
  decrements ``_n_unmaterialized`` for every dropped version, not only
  for an unfilled slot, so removing or pruning a materialized version
  undercounts the placeholders (and overcounts ``version_count``).  The
  planner's settle check reads that counter: every settled batch must
  leave exactly the in-flight plans' slots behind.
* ``fill-keeps-the-slot-counted`` — ``fill`` publishes the value but
  leaves ``_n_unmaterialized`` alone, so a filled slot stays counted as
  a placeholder and out of ``version_count``.
* ``prune-drops-the-base`` — ``prune_before`` cuts one version further,
  taking the newest version below the watermark with it: the base a
  reader positioned at the watermark would be served.
* ``latest-before-includes-the-position`` — ``latest_before`` bisects
  past ``position``, so a read re-binding below an aborted slot is
  served that slot again.
* ``at-position-compares-keys`` — ``at_position`` compares order keys
  instead of positions, so position ``-1`` (the initial version's key)
  serves the initial version.
* ``final-state-reads-pending-slots`` — ``final_state`` takes the
  newest version of a chain, materialized or not, so an unfilled slot
  at a chain's tail reports its ``UNWRITTEN`` value.

The check that kills each one is the list-scan model of
``tests/storage/test_store_model.py::
test_random_operations_agree_with_the_list_scan_model[plain]``: after
every operation the real store's counters must equal a recount of the
reference chains, and every lookup must serve the reference's version.
It runs under the zoo's derandomized Hypothesis budget; a mutant its
check does not kill fails its test: a gap to close, never an ``xfail``.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import find, given, settings  # noqa: E402

from repro.storage.mvstore import MultiversionStore  # noqa: E402

from tests.mutants.test_audit import mutated  # noqa: E402
from tests.mutants.test_mvto import BUDGET  # noqa: E402
from tests.storage.test_store_model import (  # noqa: E402
    STORES,
    Pair,
    run,
    steps,
)

#: mutant -> (the patched class, attribute, the ``(old, new)`` source
#: edit that recompiles the real one wrong).
MUTANTS = {
    "dropped-miscounts-placeholders": (
        MultiversionStore, "_dropped",
        ("if not version.materialized:", "if True:"),
    ),
    "fill-keeps-the-slot-counted": (
        MultiversionStore, "fill",
        ("self._n_unmaterialized -= 1", "pass"),
    ),
    "prune-drops-the-base": (
        MultiversionStore, "prune_before",
        ("bisect_left(keys, watermark) - 1", "bisect_left(keys, watermark)"),
    ),
    "latest-before-includes-the-position": (
        MultiversionStore, "latest_before",
        ("bisect_left(self._keys[entity], position)",
         "bisect_left(self._keys[entity], position + 1)"),
    ),
    "at-position-compares-keys": (
        MultiversionStore, "at_position",
        ("chain[i].position != position",
         "_order_key(chain[i].position) != _order_key(position)"),
    ),
    "final-state-reads-pending-slots": (
        MultiversionStore, "final_state",
        ("if version.materialized:", "if True:"),
    ),
}


def killed_by_list_scan_model(script) -> bool:
    """The plain store disagrees with the list-scan reference."""
    try:
        run(Pair(STORES["plain"]()), script)
    except AssertionError:
        return True
    return False


def install(patch, name, mutate=True):
    """Set mutant ``name`` on its owner — or, with ``mutate=False``, its
    site recompiled unmutated."""
    owner, attribute, (old, new) = MUTANTS[name]
    patch.setattr(owner, attribute, mutated(
        getattr(owner, attribute), old, new if mutate else old
    ))


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_the_mutant_is_killed(name, monkeypatch):
    install(monkeypatch, name)
    # ``find`` raises ``NoSuchExample`` if the mutant survives the budget.
    find(steps, killed_by_list_scan_model, settings=BUDGET)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_no_check_fires_on_the_real_store(name, monkeypatch):
    """A check that fired on correct code would kill every mutant.  The
    site runs recompiled unmutated, so that a kill is the mutation's
    doing, not the recompile's."""
    install(monkeypatch, name, mutate=False)

    @given(steps)
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def fires(script):
        assert not killed_by_list_scan_model(script)

    fires()
