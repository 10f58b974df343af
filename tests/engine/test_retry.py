"""Abort/retry semantics: aborts leave no trace, retries read fresh.

The MVTO scenario used throughout: transaction 1 (oldest timestamp) reads
x, a younger transaction also reads x's initial version, and then
transaction 1's write of x arrives "too late" — the classic MVTO write
rejection, which under the engine aborts transaction 1 only.
"""

import pytest

from repro.engine import (
    OnlineEngine,
    TransactionAborted,
    TxnState,
    scheduler_factory,
)
from repro.model.steps import read, write


def make_engine(**kwargs):
    kwargs.setdefault("initial", {"x": 1, "y": 2})
    kwargs.setdefault("gc_enabled", False)
    engine = OnlineEngine(scheduler_factory("mvto"), **kwargs)
    # Materialize the initial versions so version_count comparisons are
    # not confused by their lazy creation at first touch.
    engine.store.latest("x")
    engine.store.latest("y")
    return engine


def reject_t1_write(engine):
    """Drive t1 into an MVTO write rejection; returns the dead attempt."""
    a1 = engine.begin("t1", 2)
    a2 = engine.begin("t2", 1)
    assert engine.submit(a1, read("t1", "x")) == 1
    assert engine.submit(a2, read("t2", "x")) == 1  # younger read of init
    with pytest.raises(TransactionAborted):
        engine.submit(a1, write("t1", "x"))  # invalidates t2's read
    return a1, a2


class TestAbortLeavesNoTrace:
    def test_rejected_transaction_leaves_no_versions(self):
        engine = make_engine()
        baseline = engine.store.version_count()
        a1, a2 = reject_t1_write(engine)
        assert a1.state is TxnState.ABORTED
        assert engine.store.version_count() == baseline
        assert engine.store.final_state()["x"] == 1

    def test_aborted_steps_are_stripped_from_the_log(self):
        engine = make_engine()
        a1, a2 = reject_t1_write(engine)
        assert [e.step.txn for e in engine.log] == ["t2"]
        # The scheduler was replayed over the surviving log.
        assert [s.txn for s in engine.scheduler.accepted_steps] == ["t2"]

    def test_survivor_commits_after_neighbour_abort(self):
        engine = make_engine()
        a1, a2 = reject_t1_write(engine)
        engine.finish(a2)
        assert a2.state is TxnState.COMMITTED

    def test_mid_transaction_abort_retracts_installed_writes(self):
        engine = make_engine()
        baseline = engine.store.version_count()
        a1 = engine.begin("t1", 3)
        engine.submit(a1, write("t1", "x"))  # installed...
        assert engine.store.version_count() == baseline + 1
        a2 = engine.begin("t2", 1)
        engine.submit(a2, read("t2", "y"))
        with pytest.raises(TransactionAborted):
            engine.submit(a1, write("t1", "y"))  # ...then rejected
        assert engine.store.version_count() == baseline
        assert engine.store.final_state()["x"] == 1

    def test_submit_after_abort_keeps_raising(self):
        engine = make_engine()
        a1, _ = reject_t1_write(engine)
        with pytest.raises(TransactionAborted):
            engine.submit(a1, write("t1", "x"))


class TestRetrySemantics:
    def test_retried_transaction_rereads_fresh_versions(self):
        engine = make_engine()
        a1, a2 = reject_t1_write(engine)
        engine.finish(a2)
        # Another writer moves x forward before the retry.
        a3 = engine.begin("t3", 1, lambda k, reads: 99)
        engine.submit(a3, write("t3", "x"))
        engine.finish(a3)
        # Retry of t1: a new attempt with a fresh timestamp re-reads the
        # *current* version, not the one the dead attempt saw.
        retry = engine.begin("t1", 2)
        assert engine.submit(retry, read("t1", "x")) == 99
        engine.submit(retry, write("t1", "x"))
        engine.finish(retry)
        assert retry.state is TxnState.COMMITTED
        assert engine.metrics.committed == 3
        assert engine.metrics.aborted_rejected == 1


class TestCascadingAborts:
    def test_dirty_reader_cascades_with_the_aborted_writer(self):
        engine = make_engine()
        baseline = engine.store.version_count()
        a1 = engine.begin("t1", 2)
        engine.submit(a1, write("t1", "x"))  # uncommitted write
        a2 = engine.begin("t2", 1)
        engine.submit(a2, read("t2", "x"))  # dirty read from t1
        assert a1 in a2.deps
        a3 = engine.begin("t3", 1)
        engine.submit(a3, read("t3", "y"))
        with pytest.raises(TransactionAborted):
            engine.submit(a1, write("t1", "y"))  # t1 dies...
        assert a2.state is TxnState.ABORTED  # ...and takes t2 with it
        assert a2.abort_reason == "cascade"
        assert engine.metrics.aborted_cascade == 1
        assert engine.store.version_count() == baseline
        # Only the clean reader's step survives.
        assert [e.step.txn for e in engine.log] == ["t3"]

    def test_pending_dirty_reader_cannot_commit_before_its_source(self):
        engine = make_engine()
        a1 = engine.begin("t1", 2)
        engine.submit(a1, write("t1", "x"))
        a2 = engine.begin("t2", 1)
        engine.submit(a2, read("t2", "x"))
        assert engine.finish(a2) is TxnState.PENDING
        # Source commits -> dependant finalizes.
        engine.submit(a1, write("t1", "y"))
        engine.finish(a1)
        assert a1.state is TxnState.COMMITTED
        assert a2.state is TxnState.COMMITTED

    def test_break_pending_cycle_aborts_youngest_pending(self):
        engine = make_engine()
        a1 = engine.begin("t1", 2)
        engine.submit(a1, write("t1", "x"))
        a2 = engine.begin("t2", 1)
        engine.submit(a2, read("t2", "x"))
        engine.finish(a2)  # pending on active t1
        victim = engine.break_pending_cycle()
        assert victim is a2
        assert a2.state is TxnState.ABORTED
        assert engine.metrics.aborted_deadlock == 1
        # t1 is untouched and can still commit.
        engine.submit(a1, write("t1", "y"))
        engine.finish(a1)
        assert a1.state is TxnState.COMMITTED
