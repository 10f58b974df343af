"""Abort by retraction: same runs as whole-prefix replay, fewer decisions.

An engine abort retracts the doomed steps from the scheduler
(``Scheduler.retract``), and every engine scheduler drops them in place,
each leaving a tombstone.  The reference here is the same scheduler
classes retracting by the holes model (``retract_model.retract``), which
sends every abort down the whole-prefix path (reset, re-feed the log
with the doomed steps as holes).  Both must produce the same run, byte
for byte; only the number of scheduler decisions may differ.
"""

import pytest

from repro.db import Database, RunConfig
from repro.engine import (
    ConcurrentDriver,
    EngineError,
    OnlineEngine,
    TransactionAborted,
    TxnState,
    scheduler_factory,
)
from repro.engine.factory import SCHEDULER_FACTORIES
from repro.model.steps import read, write
from repro.obs import Tracer, to_jsonl
from repro.schedulers import (
    MVTOScheduler,
    SGTScheduler,
    SnapshotIsolationScheduler,
    TwoPhaseLocking,
    TwoVersionTwoPL,
)
from repro.workloads import scenario_factory
from repro.workloads.bank import BankWorkload

from tests.schedulers import retract_model


class RefMVTO(MVTOScheduler):
    retract = retract_model.retract


class RefSI(SnapshotIsolationScheduler):
    retract = retract_model.retract


class Ref2V2PL(TwoVersionTwoPL):
    retract = retract_model.retract


class Ref2PL(TwoPhaseLocking):
    retract = retract_model.retract


class RefSGT(SGTScheduler):
    retract = retract_model.retract


REFERENCE = {
    "mvto": lambda lengths: RefMVTO(),
    "si": RefSI,
    "2v2pl": Ref2V2PL,
    "2pl": Ref2PL,
    "sgt": lambda lengths: RefSGT(),
}

#: (mode, scenario, scenario params, config options); the parallel cases
#: run the deterministic shard runtime: held commits, 2PC vote-no and
#: flush aborts arriving through ``abort_attempt``.
CASES = {
    "serial-bank": (
        "serial", "bank", dict(n_accounts=4),
        dict(workers=4, epoch_max_steps=48),
    ),
    "serial-inventory": (
        "serial", "inventory", dict(n_warehouses=2),
        dict(workers=4, epoch_max_steps=48),
    ),
    "serial-abort-heavy": (
        "serial", "abort-heavy",
        dict(n_shards=2, accounts_per_shard=2, abort_fraction=0.2),
        dict(workers=4, epoch_max_steps=48),
    ),
    "parallel-sharded-bank": (
        "parallel", "sharded-bank",
        dict(n_shards=2, accounts_per_shard=2, cross_fraction=0.4),
        dict(workers=2, batch_size=4, deterministic=True,
             epoch_max_steps=48),
    ),
    "parallel-abort-heavy": (
        "parallel", "abort-heavy",
        dict(n_shards=2, accounts_per_shard=2, abort_fraction=0.2,
             cross_fraction=0.4),
        dict(workers=2, batch_size=4, deterministic=True,
             epoch_max_steps=48),
    ),
}


def run_case(case: str, scheduler: str):
    mode, scenario, params, options = CASES[case]
    tracer = Tracer(capacity=None)
    report = Database().run(
        scenario_factory(scenario, seed=5, **params),
        RunConfig(mode=mode, scheduler=scheduler, seed=3, trace=tracer,
                  **options),
        txns=120,
    )
    assert report.invariant_ok
    return report, to_jsonl(tracer)


@pytest.mark.parametrize("scheduler", sorted(REFERENCE))
@pytest.mark.parametrize("case", sorted(CASES))
def test_same_run_as_whole_prefix_replay(case, scheduler, monkeypatch):
    native, native_trace = run_case(case, scheduler)
    monkeypatch.setitem(SCHEDULER_FACTORIES, scheduler, REFERENCE[scheduler])
    reference, reference_trace = run_case(case, scheduler)

    # Aborts are what is being compared.  (On parallel-sharded-bank only
    # mvto has any: si sees no write-write overlap, and the other three
    # run whole transactions one at a time in a single domain.)
    assert native.aborted > 0 or case == "parallel-sharded-bank"
    assert native.metrics.as_dict() == reference.metrics.as_dict()
    assert native.as_dict() == reference.as_dict()
    assert native.final_state == reference.final_state
    assert native_trace == reference_trace


# -- how much the scheduler is asked ---------------------------------------


def test_an_abort_costs_the_tail_not_the_epoch():
    """bank, 8 accounts, 4 sessions, 400 transactions, mvto: every step is
    decided once, when submitted.  An abort retracts the doomed steps in
    place and decides nothing again — not the steps after the aborted
    attempt's first one (suffix replay), nor the epoch's whole log
    (≈19 decisions per submitted step before that)."""
    decisions = []

    class Counting(MVTOScheduler):
        def _accept(self, step):
            decisions.append(step)
            return super()._accept(step)

    workload = BankWorkload(n_accounts=8, seed=3)
    engine = OnlineEngine(
        lambda lengths: Counting(), initial=workload.initial_state()
    )
    metrics = ConcurrentDriver(
        engine, workload.transaction_stream(400), n_sessions=4, seed=1
    ).run()
    assert workload.invariant_holds(engine.store.final_state())
    assert metrics.aborted_total > 100  # contended: replay is exercised
    assert metrics.replays >= metrics.aborted_rejected
    assert len(decisions) == metrics.steps_submitted


class CountingLog(list):
    """The epoch log, counting entries fetched one at a time."""

    fetched = 0

    def __getitem__(self, index):
        if isinstance(index, int):
            self.fetched += 1
        return super().__getitem__(index)


@pytest.mark.parametrize("scheduler", ["2pl", "sgt"])
def test_verifying_a_long_suffix_is_one_pass_over_the_log(scheduler):
    """A single-version read is served "the latest write before it", and
    checking that must not cost a scan of the log per read.  Abort an
    attempt that is followed by 200 committed readers of an entity last
    written (or never written) a 100-step prefix earlier — every lookup
    runs past the cut — and the prefix is walked once, not once per
    read."""
    engine = OnlineEngine(
        scheduler_factory(scheduler),
        initial={"x": 1, "y": 2, "z": 3},
        gc_enabled=False,
        epoch_max_steps=1000,
    )

    def commit(txn, step):
        attempt = engine.begin(txn, 1)
        engine.submit(attempt, step(txn, "y" if "y" in txn else "z"))
        engine.finish(attempt)
        assert attempt.state is TxnState.COMMITTED

    commit("w1-y", write)
    commit("w2-y", write)  # the version every later read of y is served
    for n in range(100):
        commit(f"p{n}", read)
    old = engine.begin("old", 2)
    engine.submit(old, read("old", "x"))  # the cut: log[102]
    for n in range(100):
        commit(f"s{n}-y", read)
        commit(f"s{n}", read)
    assert old.first == 102 and len(engine.log) == 303
    engine.log = CountingLog(engine.log)
    engine.abort_attempt(old)  # a wrong version would raise EngineError
    assert len(engine.log) == 303  # old's step stays, a tombstone
    assert engine.scheduler.accepted_steps == [
        None if e.attempt is old else e.step for e in engine.log
    ]
    assert engine.log.fetched <= 102  # parent's scan: ≈ 200 reads × 150


# -- edge cases of the cut --------------------------------------------------


def make_engine(factory=scheduler_factory("mvto")):
    return OnlineEngine(
        factory, initial={"x": 1, "y": 2, "z": 3}, gc_enabled=False
    )


def test_cascade_victim_whose_first_step_precedes_the_roots():
    # sgt serves the latest version, so the older t2 can read t1's write.
    engine = make_engine(scheduler_factory("sgt"))
    victim = engine.begin("t2", 2)
    engine.submit(victim, read("t2", "y"))  # log[0]: before the root
    bystander = engine.begin("t3", 2)
    engine.submit(bystander, read("t3", "z"))  # log[1]
    root = engine.begin("t1", 2)
    engine.submit(root, write("t1", "x"))  # log[2]
    engine.submit(victim, read("t2", "x"))  # log[3]: dirty read of t1
    engine.submit(bystander, write("t3", "z"))  # log[4]
    engine.abort_attempt(root)
    assert victim.state is TxnState.ABORTED
    assert victim.abort_reason == "cascade"
    # The cut is the victim's log[0]; the doomed steps stay as
    # tombstones, the bystander's do not move, and the scheduler agrees.
    assert [e.step for e in engine.log if e.attempt is bystander] == [
        read("t3", "z"), write("t3", "z"),
    ]
    assert engine.scheduler.accepted_steps == [
        None, read("t3", "z"), None, None, write("t3", "z"),
    ]
    assert bystander.first == 1
    engine.finish(bystander)
    assert bystander.state is TxnState.COMMITTED
    assert engine.metrics.replays == 1


def test_abort_with_zero_accepted_steps():
    engine = make_engine()
    other = engine.begin("t2", 1)
    engine.submit(other, read("t2", "x"))
    idle = engine.begin("t1", 1)
    engine.abort_attempt(idle)  # nothing of it in the log: cut == len(log)
    assert idle.state is TxnState.ABORTED
    assert [e.step for e in engine.log] == [read("t2", "x")]
    assert engine.scheduler.accepted_steps == [read("t2", "x")]
    assert engine.metrics.replays == 1


def test_rejected_first_step_revives_the_scheduler():
    # 2PL: t2's very first step hits t1's write lock.  Nothing of t2 is
    # in the log, but the scheduler died on the rejection.
    engine = make_engine(scheduler_factory("2pl"))
    holder = engine.begin("t1", 2)
    engine.submit(holder, write("t1", "x"))
    late = engine.begin("t2", 1)
    with pytest.raises(TransactionAborted):
        engine.submit(late, read("t2", "x"))
    assert not engine.scheduler.dead
    engine.submit(holder, write("t1", "y"))
    engine.finish(holder)
    assert holder.state is TxnState.COMMITTED


class ForgedScheduler(MVTOScheduler):
    """MVTO that, once armed, rejects the next write it is shown.  It
    retracts by the holes model (reset + re-feed), the one path on which
    a survivor can be rejected."""

    armed = False
    retract = retract_model.retract

    def _accept(self, step):
        if self.armed and step.is_write:
            self.armed = False
            return False
        return super()._accept(step)


def test_a_rejecting_retract_raises():
    """The engine retracts once per abort: a ``retract`` that rejects a
    survivor would revoke a decision the engine already acted on."""
    engine = make_engine(lambda lengths: ForgedScheduler())
    root = engine.begin("t2", 2)
    engine.submit(root, read("t2", "z"))  # log[0]: the cut
    writer = engine.begin("t3", 2)
    engine.submit(writer, write("t3", "x"))  # log[1]: re-submitted
    engine.scheduler.armed = True
    with pytest.raises(EngineError, match="retract rejected"):
        engine.abort_attempt(root)


# -- the guard on survivors that read a doomed version ----------------------


@pytest.mark.parametrize("commit_reader", [False, True])
def test_a_reader_missing_from_the_closure_raises(commit_reader):
    """The readers closure dooms every reader of a doomed version; one it
    misses (its dependency forged away) would keep a read of a version
    that is gone, so the abort raises instead — committed or not."""
    engine = make_engine(scheduler_factory("sgt"))
    writer = engine.begin("t1", 2)
    engine.submit(writer, write("t1", "x"))
    reader = engine.begin("t2", 1)
    engine.submit(reader, read("t2", "x"))  # a dirty read of t1's x
    assert reader.deps == {writer}
    reader.deps.clear()
    writer.readers.clear()
    if commit_reader:
        engine.finish(reader)
        assert reader.state is TxnState.COMMITTED
    with pytest.raises(EngineError, match="reading a removed version") as err:
        engine.abort_attempt(writer)
    assert ("committed" in str(err.value)) is commit_reader


@pytest.mark.parametrize("scheduler", sorted(SCHEDULER_FACTORIES))
def test_a_retraction_leaves_the_scheduler_on_the_tombstoned_log(scheduler):
    """After every abort of a contended run, the scheduler's accepted
    steps are the engine's log with a tombstone at each aborted
    attempt's step, and every surviving read is sourced from the version
    the engine served it."""
    workload = BankWorkload(n_accounts=4, seed=3)
    engine = OnlineEngine(
        scheduler_factory(scheduler), initial=workload.initial_state(),
        epoch_max_steps=48,
    )
    checked = []
    abort = engine._abort_cascade

    def checked_abort(root, reason, *rejected):
        abort(root, reason, *rejected)
        sched = engine.scheduler
        assert sched.accepted_steps == [
            None if e.attempt.state is TxnState.ABORTED else e.step
            for e in engine.log
        ]
        for position, entry in enumerate(engine.log):
            if entry.attempt.state is TxnState.ABORTED:
                continue
            if entry.step.is_read:
                version, _owner = engine._resolve_source(
                    sched.source_of_read(position), entry.step.entity
                )
                assert version is entry.read_version
        checked.append(reason)

    engine._abort_cascade = checked_abort
    ConcurrentDriver(
        engine, workload.transaction_stream(200), n_sessions=4, seed=1
    ).run()
    assert workload.invariant_holds(engine.store.final_state())
    assert len(checked) > 20
