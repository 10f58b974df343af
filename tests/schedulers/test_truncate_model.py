"""Model test: ``truncate(n)`` is "the state after the first n accepted steps".

A scheduler's state is a function of its accepted prefix, so a scheduler
that was fed a stream, truncated to ``n`` and fed a continuation must be
indistinguishable from a fresh instance fed ``accepted[:n]`` and the same
continuation.  Every scheduler truncates by the base-class re-derivation
(reset and re-submit); the fresh instance never truncates, so it is the
reference.

``retract`` is checked the same way against its definition: dropping a
set of transactions (closed under reads-from) must leave what truncating
to their first step and re-submitting the survivors leaves.  The five
engine schedulers (MVTO, SGT, 2PL, SI, 2V2PL) retract in place, and
``state`` holds what each of them rewrites; ``mvcg-eager`` keeps the
base-class default, which is that definition, and rides along.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.model.schedules import Schedule, T_INIT  # noqa: E402
from repro.model.steps import Op, Step, read, write  # noqa: E402
from repro.model.version_functions import VersionFunction  # noqa: E402
from repro.schedulers import (  # noqa: E402
    EagerMVCGScheduler,
    MVTOScheduler,
    SGTScheduler,
    SnapshotIsolationScheduler,
    TwoPhaseLocking,
    TwoVersionTwoPL,
)
from repro.schedulers.base import Scheduler  # noqa: E402

TXNS = ("a", "b", "c")
ENTITIES = ("x", "y")

#: name -> (constructor taking the declared lengths, primed?)
KINDS = {
    "mvto": (lambda lengths: MVTOScheduler(), False),
    "mvto-primed": (lambda lengths: MVTOScheduler(), True),
    "si": (SnapshotIsolationScheduler, False),
    "2v2pl": (TwoVersionTwoPL, False),
    "2pl": (TwoPhaseLocking, False),
    "sgt": (lambda lengths: SGTScheduler(), False),
    "mvcg-eager": (lambda lengths: EagerMVCGScheduler(), False),
}

steps = st.builds(
    Step, st.sampled_from(TXNS), st.sampled_from(Op), st.sampled_from(ENTITIES)
)
streams = st.lists(steps, max_size=10)


@st.composite
def scripts(draw):
    """(lengths, primes, first stream, [(cut pick, continuation)]).

    Declared lengths are short (1-3), so commits, certifications and lock
    releases fire mid-stream and the TxnId keeps arriving afterwards, as
    it does when the engine retries an aborted transaction.  The cut pick
    is resolved against the accepted count at run time.
    """
    lengths = {txn: draw(st.integers(1, 3), label=f"len:{txn}") for txn in TXNS}
    primes = dict(zip(TXNS, draw(st.permutations(range(len(TXNS))))))
    rounds = draw(
        st.lists(st.tuples(st.integers(0, 10), streams), min_size=1, max_size=3)
    )
    return lengths, primes, draw(streams), rounds


def build(kind: str, lengths: dict, primes: dict) -> Scheduler:
    constructor, primed = KINDS[kind]
    scheduler = constructor(dict(lengths))
    if primed:
        for txn, seq in primes.items():
            scheduler.prime_transaction(txn, seq)
    return scheduler


def feed(scheduler: Scheduler, stream) -> list[bool]:
    """Submit until the first rejection (which kills the scheduler)."""
    decisions = []
    for step in stream:
        decisions.append(scheduler.submit(step))
        if not decisions[-1]:
            break
    return decisions


def observable(scheduler: Scheduler) -> dict:
    accepted = list(scheduler.accepted_steps)
    vf = scheduler.version_function()
    if not scheduler.chooses_versions:
        # single-version (2pl, sgt): the committed function is V_s itself
        assert vf == VersionFunction.standard(Schedule(tuple(accepted)))
    out = {
        "accepted": accepted,
        "dead": scheduler.dead,
        "assignments": dict(vf.assignments),
        "sources": [
            scheduler.source_of_read(p)
            for p, step in enumerate(accepted)
            if step.is_read
        ],
    }
    if isinstance(scheduler, MVTOScheduler):
        out["order"] = scheduler.serialization_order()
    return out


def truncate_then_continue(kind: str, script) -> None:
    """Truncate after each round and compare with a fresh instance fed
    the kept prefix; assert equal decisions and state throughout."""
    lengths, primes, first, rounds = script
    live = build(kind, lengths, primes)
    feed(live, first)
    for pick, continuation in rounds:
        n = pick % (len(live.accepted_steps) + 1)
        prefix = list(live.accepted_steps[:n])
        live.truncate(n)

        fresh = build(kind, lengths, primes)
        assert all(fresh.submit(step) for step in prefix)
        assert observable(live) == observable(fresh)

        assert feed(live, continuation) == feed(fresh, continuation)
        assert observable(live) == observable(fresh)


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=300, deadline=None)
@given(script=scripts())
def test_truncate_then_continue_equals_fresh_prefix_then_continue(kind, script):
    truncate_then_continue(kind, script)


# -- retract == truncate + re-submit ----------------------------------------


@st.composite
def retraction_scripts(draw):
    """(lengths, primes, first stream, [(doom mask, continuation, cut
    pick)]).  Each round dooms the transactions the mask picks (closed
    under reads-from when it is applied), feeds a continuation, then
    truncates (the pick is resolved against the accepted count)."""
    lengths, primes, first, _rounds = draw(scripts())
    rounds = draw(st.lists(
        st.tuples(st.integers(0, 2 ** len(TXNS) - 1), streams,
                  st.integers(0, 10)),
        min_size=1, max_size=3,
    ))
    return lengths, primes, first, rounds


def doomed_positions(scheduler: Scheduler, txns: set) -> list[int]:
    """Every position of ``txns`` and of whoever read from them, as the
    engine's readers closure dooms them."""
    steps = scheduler.accepted_steps
    doomed = set(txns)
    grew = True
    while grew:
        grew = False
        for position, step in enumerate(steps):
            if step.is_read and step.txn not in doomed:
                source = scheduler.source_of_read(position)
                if source != T_INIT and steps[source].txn in doomed:
                    doomed.add(step.txn)
                    grew = True
    return [p for p, step in enumerate(steps) if step.txn in doomed]


def truncate_and_resubmit(scheduler: Scheduler, removed: list[int]):
    """``retract``'s definition, spelled out: the position of the first
    survivor re-submission rejects, or None."""
    steps = scheduler.accepted_steps
    cut = removed[0] if removed else len(steps)
    survivors = [
        step for position, step in enumerate(steps)
        if position >= cut and position not in removed
    ]
    scheduler.truncate(cut)
    for position, step in enumerate(survivors, cut):
        if not scheduler.submit(step):
            return position
    return None


def _nonempty(table: dict) -> dict:
    """``table`` without its empty sets: a set emptied in place and one
    never made are the same state."""
    return {key: value for key, value in table.items() if value}


def state(scheduler: Scheduler) -> dict:
    """``observable`` plus what a retraction rewrites: the SGT graph and
    reader/writer lists, the MVTO chains with each timestamp named by its
    transaction (timestamps re-issued by a re-submission differ, their
    order does not), the 2PL locks, the SI snapshots and versions, the
    2V2PL versions, active set and readers, and the step counts."""
    out = observable(scheduler)
    out["seen"] = scheduler._seen
    if isinstance(scheduler, TwoPhaseLocking):
        out["read_locks"] = _nonempty(scheduler._read_locks)
        out["write_locks"] = scheduler._write_locks
        out["held"] = _nonempty(scheduler._held)
    if isinstance(scheduler, SnapshotIsolationScheduler):
        out["start"] = scheduler._start
        out["committed_versions"] = scheduler._committed_versions
        out["pending_writes"] = scheduler._pending_writes
    if isinstance(scheduler, TwoVersionTwoPL):
        out["committed"] = scheduler._committed
        out["uncommitted"] = scheduler._uncommitted
        out["read_by"] = _nonempty(scheduler._read_by)
        out["active"] = scheduler._active
    if isinstance(scheduler, SGTScheduler):
        out["nodes"] = sorted(scheduler._graph.nodes)
        out["arcs"] = sorted(scheduler._graph.arcs)
        out["readers"] = scheduler._readers
        out["writers"] = scheduler._writers
    if isinstance(scheduler, MVTOScheduler):
        name = {ts: txn for txn, ts in scheduler._timestamps.items()}
        name[-1] = None
        out["chains"] = {
            entity: [
                (name.get(key, key), version.source,
                 name.get(version.max_reader_ts, version.max_reader_ts),
                 [name.get(ts, ts) for ts in version.readers])
                for key, version in zip(keys, chain)
            ]
            for entity, (keys, chain) in scheduler._chains.items()
            # an initial version nobody read is an untouched entity
            if len(chain) > 1 or chain[0].readers
        }
    return out


def retract_then_continue(kind: str, script) -> None:
    """Per round: retract a doomed set from one instance, truncate and
    re-submit on another; then a continuation, then a truncate.  Equal
    return, decisions and state throughout."""
    lengths, primes, first, rounds = script
    live = build(kind, lengths, primes)
    reference = build(kind, lengths, primes)
    assert feed(live, first) == feed(reference, first)
    for mask, continuation, pick in rounds:
        txns = {txn for bit, txn in enumerate(TXNS) if mask >> bit & 1}
        removed = doomed_positions(live, txns)
        rejected = live.retract(removed)
        assert rejected == truncate_and_resubmit(reference, removed)
        if rejected is not None:
            assert live.dead and reference.dead
            return
        assert state(live) == state(reference)

        assert feed(live, continuation) == feed(reference, continuation)
        assert state(live) == state(reference)

        n = pick % (len(live.accepted_steps) + 1)
        live.truncate(n)
        reference.truncate(n)
        assert state(live) == state(reference)


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=300, deadline=None)
@given(script=retraction_scripts())
def test_retract_equals_truncate_and_resubmit(kind, script):
    retract_then_continue(kind, script)


def test_mvto_retract_lowers_the_r_timestamp_to_the_surviving_reads():
    sched = MVTOScheduler()
    assert sched.submit(read("a", "x"))  # a < b < c
    assert sched.submit(read("b", "y"))
    assert sched.submit(read("c", "x"))  # x's initial version read at c
    sched.retract([2])
    # With c's read gone the largest reader of x is a: b may write x.
    assert sched.submit(write("b", "x"))
    assert sched.source_of_read(0) == T_INIT


def test_mvto_retract_never_reissues_a_timestamp():
    sched = MVTOScheduler()
    assert sched.submit(read("a", "x"))
    assert sched.submit(read("b", "x"))
    sched.retract([0])
    assert sched.submit(read("c", "y"))  # fresh: younger than b
    assert sched.serialization_order() == ["b", "c"]
    assert sched.submit(write("c", "x"))
    # b is older than c, so b reads x's initial version, not c's write.
    assert sched.submit(read("b", "x"))
    assert sched.source_of_read(3) == T_INIT


def test_truncate_after_retract_rederives_below_the_retraction():
    """A retraction moves the survivors down; a truncate after it
    re-derives the surviving prefix, above the retraction or below."""
    sched = SGTScheduler()
    assert sched.submit(write("a", "x"))
    assert sched.submit(read("b", "y"))
    assert sched.submit(read("c", "x"))  # arc a -> c
    sched.retract([1])
    assert sched.accepted_steps == [write("a", "x"), read("c", "x")]
    assert sched.submit(write("b", "y"))
    sched.truncate(2)  # drops b's write
    assert sched.accepted_steps == [write("a", "x"), read("c", "x")]
    assert sched._graph.arcs == [("a", "c")]
    sched.truncate(1)  # re-derives a's write alone
    assert sched.accepted_steps == [write("a", "x")]
    assert sched._graph.arcs == [] and sched._readers == {}


# -- the named ways to get a truncate wrong, pinned without hypothesis -----


def test_mvto_truncate_restores_max_reader_ts():
    sched = MVTOScheduler()
    assert sched.submit(write("a", "y"))  # a is the older transaction
    assert sched.submit(read("b", "x"))  # marks x's initial version read at 1
    sched.truncate(1)
    # With b's read gone, a's write of x invalidates nobody.
    assert sched.submit(write("a", "x"))


def test_mvto_truncate_drops_the_fresh_timestamp():
    sched = MVTOScheduler()
    assert sched.submit(read("a", "x"))
    assert sched.submit(read("b", "x"))
    sched.truncate(1)
    assert sched.submit(read("c", "y"))
    assert sched.serialization_order() == ["a", "c"]
    # b arrives again (the retry) and is now the youngest.
    assert sched.submit(read("b", "y"))
    assert sched.serialization_order() == ["a", "c", "b"]


def test_mvto_primes_survive_truncate():
    sched = MVTOScheduler()
    sched.prime_transaction("a", 5)
    sched.prime_transaction("b", 2)
    assert sched.submit(read("a", "x")) and sched.submit(read("b", "x"))
    sched.truncate(0)
    assert sched.submit(read("a", "x")) and sched.submit(read("b", "x"))
    assert sched.serialization_order() == ["b", "a"]


def mid_chain_insert(sched):
    """b (younger) writes x, then a slots its version in *before* b's;
    cut a's write, then let b read x.  Returns the source b is served."""
    sched.prime_transaction("a", 0)
    sched.prime_transaction("b", 1)
    assert sched.submit(write("b", "x"))
    assert sched.submit(write("a", "x"))  # inserted mid-chain, not appended
    sched.truncate(1)
    assert sched.submit(read("b", "x"))
    return sched.source_of_read(1)


def test_mvto_truncate_takes_a_mid_chain_version_and_its_key_out():
    assert mid_chain_insert(MVTOScheduler()) == 0  # b's own write


def test_2pl_truncate_retakes_a_released_lock():
    sched = TwoPhaseLocking({"a": 2, "b": 1})
    assert sched.submit(read("a", "x"))
    assert sched.submit(write("a", "x"))  # a's last step: locks released
    sched.truncate(1)
    assert not sched.submit(write("b", "x"))  # a holds its read lock again


def test_si_truncate_uncommits():
    sched = SnapshotIsolationScheduler({"a": 1, "b": 2})
    assert sched.submit(read("b", "y"))
    assert sched.submit(write("a", "x"))  # a commits a write of x
    sched.truncate(1)
    # Nobody committed x concurrently with b any more.
    assert sched.submit(write("b", "x"))


def test_2v2pl_truncate_uncertifies():
    sched = TwoVersionTwoPL({"a": 1, "b": 1})
    assert sched.submit(write("a", "x"))  # certified: x's committed version
    sched.truncate(0)
    assert sched.submit(read("b", "x"))
    assert sched.source_of_read(0) == T_INIT


def test_sgt_truncate_removes_arcs():
    sched = SGTScheduler()
    assert sched.submit(write("a", "x"))
    assert sched.submit(read("b", "x"))  # arc a -> b
    sched.truncate(1)
    assert sched.submit(write("b", "y"))
    assert sched.submit(read("a", "y"))  # b -> a alone is no cycle


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_truncate_edges(kind):
    lengths = {"a": 2, "b": 2}
    # Under every scheduler here the third step is rejected or the
    # stream is accepted whole; both ends are exercised below.
    stream = [read("a", "x"), read("b", "x"), write("a", "x"), write("b", "x")]
    sched = build(kind, lengths, {"a": 0, "b": 1})
    feed(sched, stream)
    count = len(sched.accepted_steps)
    accepted = list(sched.accepted_steps)

    with pytest.raises(ValueError):
        sched.truncate(count + 1)
    with pytest.raises(ValueError):
        sched.truncate(-1)

    # truncate(len): nothing undone, but a dead scheduler is alive again
    # and rejects the same step for the same reason.
    was_dead = sched.dead
    sched.truncate(count)
    assert not sched.dead and sched.accepted_steps == accepted
    if was_dead:
        assert not sched.submit(stream[count])
        sched.truncate(count)

    sched.truncate(0)
    assert sched.accepted_steps == [] and not sched.dead
    fresh = build(kind, lengths, {"a": 0, "b": 1})
    assert feed(sched, stream) == feed(fresh, stream)
    assert observable(sched) == observable(fresh)
