"""Model tests: a step decided from what it touches decides as before.

SGT tests only the arcs a step adds and MVTO bisects an ordered chain;
the rules they replaced live on here as reference models, in the
pattern of ``tests/storage/test_store_model.py`` and
``tests/planner/test_reexec_model.py``:

* :class:`NaiveSGT` adds every conflict arc in place, walks the whole
  graph with ``has_cycle()`` and takes its trial arcs back itself on a
  rejection;
* :class:`NaiveMVTO` is the rule as the textbooks state it, by list scan
  over versions in arrival order, decided before anything is stored and
  truncated by re-deriving the prefix.

Streams are those of ``test_truncate_model`` — three transactions that
keep arriving, rewrites of one entity included, one to three truncate
rounds — and the two sides are compared after every step, accepted or
rejected.
"""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import find, given, settings  # noqa: E402

from repro.classes.csr import is_csr  # noqa: E402
from repro.model.enumeration import random_schedule  # noqa: E402
from repro.model.schedules import T_INIT  # noqa: E402
from repro.model.steps import read, write  # noqa: E402
from repro.schedulers import MVTOScheduler, SGTScheduler  # noqa: E402
from repro.schedulers.base import Scheduler  # noqa: E402

from tests.schedulers import test_truncate_model  # noqa: E402
from tests.schedulers.retract_model import truncate  # noqa: E402
from tests.schedulers.test_base import snapshot  # noqa: E402
from tests.schedulers.test_truncate_model import scripts  # noqa: E402


class NaiveSGT(SGTScheduler):
    """Add every arc, check the whole graph, take the trial arcs back on
    a cycle."""

    def _accept(self, step):
        txn, entity = step.txn, step.entity
        graph = self._graph
        fresh = txn not in graph
        if fresh:
            graph.add_node(txn)
        others = list(self._writers.get(entity, []))
        if step.is_write:
            others += self._readers.get(entity, [])
        added = []
        for other in others:
            if other != txn and not graph.has_arc(other, txn):
                graph.add_arc(other, txn)
                added.append(other)
        if graph.has_cycle():
            for other in added:
                graph.remove_arc(other, txn)
            if fresh:
                graph.remove_node(txn)
            return False
        bucket = self._readers if step.is_read else self._writers
        entry = bucket.setdefault(entity, [])
        if txn not in entry:
            entry.append(txn)
        return True


class NaiveMVTO(Scheduler):
    """The three rules by list scan; versions are kept in arrival order
    as ``[writer_ts, position, max_reader_ts]``."""

    name = "mvto-naive"
    chooses_versions = True

    def __init__(self):
        super().__init__()
        self._primed = {}
        self._reset()

    def _reset(self):
        self._timestamps = {}
        self._versions = {}

    def prime_transaction(self, txn, seq):
        self._primed[txn] = seq

    def _accept(self, step):
        ts = self._timestamps.get(
            step.txn, self._primed.get(step.txn, len(self._timestamps))
        )
        chain = self._versions.get(step.entity, [[-1, T_INIT, -1]])
        if step.is_read:
            # latest version with writer_ts <= ts
            top = max(v[0] for v in chain if v[0] <= ts)
            version = [v for v in chain if v[0] == top][-1]
        else:
            # any version with writer_ts == ts read by a younger transaction
            if any(v[0] == ts and v[2] > ts for v in chain):
                return False
            # last version with writer_ts < ts
            top = max(v[0] for v in chain if v[0] < ts)
            if [v for v in chain if v[0] == top][-1][2] > ts:
                return False
            version = [ts, len(self.accepted_steps), -1]
        self._timestamps[step.txn] = ts
        self._versions[step.entity] = chain
        if step.is_read:
            version[2] = max(version[2], ts)
            self._assignments[len(self.accepted_steps)] = version[1]
        else:
            chain.append(version)
        return True

    def serialization_order(self):
        return sorted(self._timestamps, key=self._timestamps.get)


def build(cls, primes):
    scheduler = cls()
    for txn, seq in (primes or {}).items():
        scheduler.prime_transaction(txn, seq)
    return scheduler


def observable(scheduler):
    """What ``test_truncate_model`` compares, plus the conflict graph."""
    out = test_truncate_model.observable(scheduler)
    if isinstance(scheduler, SGTScheduler):
        out["nodes"] = scheduler._graph.nodes
        out["arcs"] = scheduler._graph.arcs
    else:
        out["order"] = scheduler.serialization_order()
    return out


def drive_both(live, model, script):
    """Feed both the script; equal decisions and state after every step."""
    _lengths, _primes, first, rounds = script
    rejections = 0
    for pick, stream in [(None, first), *rounds]:
        if pick is not None:
            n = pick % (len(live.accepted_steps) + 1)
            truncate(live, n)
            truncate(model, n)
            assert observable(live) == observable(model)
        for step in stream:
            decision = live.submit(step)
            assert decision == model.submit(step), step
            assert observable(live) == observable(model), step
            if not decision:
                rejections += 1
                break
    return rejections


@settings(max_examples=400, deadline=None)
@given(script=scripts())
def test_sgt_decides_and_leaves_what_add_check_unwind_did(script):
    drive_both(SGTScheduler(), NaiveSGT(), script)


@pytest.mark.parametrize("primed", [False, True], ids=["arrival", "primed"])
@settings(max_examples=400, deadline=None)
@given(script=scripts())
def test_mvto_decides_as_the_list_scan_rules(primed, script):
    primes = script[1] if primed else None
    drive_both(build(MVTOScheduler, primes), build(NaiveMVTO, primes), script)


def rejections_that_left_a_trace(scheduler, script):
    """Drive ``script``; the rejected steps whose decision changed
    anything the scheduler holds (``test_base.snapshot``: every attribute
    but ``dead``, so 2PL's locks and MVTO's timestamps and clock too) —
    ``_accept`` itself, before ``submit`` marks the scheduler dead."""
    traced = []
    decide = scheduler._accept

    def watched(step):
        before = snapshot(scheduler)
        accepted = decide(step)
        if not accepted and snapshot(scheduler) != before:
            traced.append(step)
        return accepted

    scheduler._accept = watched
    _lengths, _primes, first, rounds = script
    for pick, stream in [(None, first), *rounds]:
        if pick is not None:
            truncate(scheduler, pick % (len(scheduler.accepted_steps) + 1))
        test_truncate_model.feed(scheduler, stream)
    return traced


#: The schedulers whose ``_accept`` decides first and mutates after: every
#: engine scheduler.  Nothing unwinds a rejected step, so a trace it left
#: would be state.
DECIDE_FIRST = ["mvto", "mvto-primed", "sgt", "2pl", "si", "2v2pl"]


def a_rejected_step_left_a_trace(kind, script):
    lengths, primes, _first, _rounds = script
    scheduler = test_truncate_model.build(kind, lengths, primes)
    return rejections_that_left_a_trace(scheduler, script) != []


@pytest.mark.parametrize("kind", DECIDE_FIRST)
@settings(max_examples=300, deadline=None)
@given(script=scripts())
def test_a_rejected_step_changes_no_state(kind, script):
    assert not a_rejected_step_left_a_trace(kind, script)


def test_mvto_rejects_a_fresh_transaction_before_timestamping_it():
    sched = build(MVTOScheduler, {"a": 0, "b": 1})
    script = ({}, {}, [read("b", "x"), write("a", "x")], [])
    # a's first step is rejected: b, younger, already read x's initial
    # version.  a's timestamp is computed, never stored.
    assert rejections_that_left_a_trace(sched, script) == []
    assert sched.dead and sched.serialization_order() == ["b"]


def test_the_streams_reach_rejections_and_rewrites():
    """The generator is not vacuous: fixed seeds hit rejected steps (the
    decide-first path) and transactions that rewrite an entity (where the
    ordered chain differs from arrival order)."""
    search = settings(derandomize=True, database=None, max_examples=2000)

    def rejected_after_rewrite(script):
        seen = set()
        for step in script[2]:
            if step.is_write:
                if (step.txn, step.entity) in seen:
                    break
                seen.add((step.txn, step.entity))
        else:
            return False
        return drive_both(MVTOScheduler(), NaiveMVTO(), script) > 0

    find(scripts(), rejected_after_rewrite, settings=search)
    find(
        scripts(),
        lambda script: drive_both(SGTScheduler(), NaiveSGT(), script) > 0,
        settings=search,
    )


def test_sgt_still_accepts_exactly_csr():
    rng = random.Random(7)
    for _ in range(300):
        s = random_schedule(
            rng.randint(2, 4), ["x", "y", "z"], rng.randint(1, 3), rng
        )
        verdict = SGTScheduler().accepts(s)
        assert verdict == NaiveSGT().accepts(s) == is_csr(s), str(s)
