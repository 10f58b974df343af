"""Shard workers driven directly: votes, aborts, flush, adapters.

The macro runtime keeps conflicts rare by design (whole transactions
execute atomically inside a domain), so these tests construct the
adversarial interleavings by hand — ``begin_part`` opens a slice, the
worker's engine takes its steps (``engine.submit``/``finish``, as the
dispatcher's cross-domain coordinator posts them) — and check every
branch of the vote / flush-apply / abort machinery deterministically.
"""

import threading

import pytest

from repro.engine import EngineError, OnlineEngine, TransactionAborted, TxnState
from repro.engine.factory import scheduler_factory
from repro.model.steps import read, write
from repro.model.transactions import Transaction
from repro.runtime.dispatch import ShardRuntime, TxnTicket
from repro.runtime.shared import DomainPlan, plan_domains
from repro.runtime.worker import FlushRendezvous, ShardWorker, WorkerFuture
from repro.schedulers.mvto import MVTOScheduler
from repro.workloads.registry import scenario_factory


def make_worker(scheduler="mvto", initial=None, **engine_kwargs):
    engine_kwargs.setdefault("hold_commits", True)
    engine_kwargs.setdefault("gc_enabled", False)
    engine = OnlineEngine(
        scheduler_factory(scheduler),
        initial=initial or {"x": 0, "y": 0},
        **engine_kwargs,
    )
    return ShardWorker(0, engine, deterministic=True)


def ticket_for(transaction, seq, program=None):
    return TxnTicket(
        transaction, program, transaction.txn, born_tick=0, seq=seq
    )


def transfer(txn, a="x", b="y"):
    return Transaction(
        txn, (read(txn, a), read(txn, b), write(txn, a), write(txn, b))
    )


class TestExecute:
    def test_clean_execute_votes_and_holds(self):
        worker = make_worker()
        ticket = ticket_for(transfer("t1"), seq=0)
        outcome, reason = worker.execute(ticket)
        assert (outcome, reason) == ("voted", None)
        attempt = ticket.attempts[0]
        # Complete but commit-held: group commit decides durability.
        assert attempt.state is TxnState.PENDING
        assert attempt.hold

    def test_mvto_rejection_reports_abort(self):
        """An old-timestamp write after a younger read is rejected."""
        worker = make_worker("mvto")
        old = ticket_for(Transaction("old", (write("old", "x"),)), seq=1)
        young = ticket_for(Transaction("young", (read("young", "x"),)), seq=2)
        assert worker.execute(young)[0] == "voted"
        outcome, reason = worker.execute(old)
        assert outcome == "aborted"
        assert reason == "rejected"
        assert worker.engine.metrics.aborted_rejected == 1

    def test_retry_with_new_seq_succeeds(self):
        worker = make_worker("mvto")
        young = ticket_for(Transaction("young", (read("young", "x"),)), seq=2)
        worker.execute(young)
        loser = ticket_for(Transaction("old", (write("old", "x"),)), seq=1)
        assert worker.execute(loser)[0] == "aborted"
        retry = ticket_for(Transaction("old", (write("old", "x"),)), seq=3)
        assert worker.execute(retry)[0] == "voted"


class TestCrossParts:
    def test_parts_protocol_and_explicit_values(self):
        worker = make_worker()
        ticket = ticket_for(
            Transaction("c1", (read("c1", "x"), write("c1", "x"))), seq=0
        )
        attempt = worker.begin_part(ticket, 2)
        value = worker.engine.submit(attempt, read("c1", "x"))
        assert value == 0
        worker.engine.submit(attempt, write("c1", "x"), value=41)
        worker.engine.finish(attempt)
        assert attempt.state is TxnState.PENDING
        assert worker.engine.store.latest("x").value == 41

    def test_abort_part_is_idempotent(self):
        worker = make_worker()
        ticket = ticket_for(Transaction("c1", (write("c1", "x"),)), seq=0)
        attempt = worker.begin_part(ticket, 1)
        worker.engine.submit(attempt, write("c1", "x"), value=7)
        worker.abort_part(attempt, "remote-abort")
        assert attempt.state is TxnState.ABORTED
        worker.abort_part(attempt, "remote-abort")  # no-op
        assert worker.engine.metrics.aborted_external == 1
        # The aborted write's version is gone.
        assert worker.engine.store.latest("x").value == 0

    def test_submit_after_remote_abort_raises(self):
        worker = make_worker()
        ticket = ticket_for(
            Transaction("c1", (write("c1", "x"), write("c1", "y"))), seq=0
        )
        attempt = worker.begin_part(ticket, 2)
        worker.engine.submit(attempt, write("c1", "x"), value=1)
        worker.abort_part(attempt, "remote-abort")
        with pytest.raises(TransactionAborted):
            worker.engine.submit(attempt, write("c1", "y"), value=2)


class TestFlush:
    def _voted(self, worker, txn, steps, seq):
        ticket = ticket_for(Transaction(txn, steps), seq=seq)
        outcome, _ = worker.execute(ticket)
        assert outcome == "voted"
        return ticket

    def test_flush_commits_dependency_chain_in_one_batch(self):
        worker = make_worker()
        writer = self._voted(worker, "w", (write("w", "x"),), seq=0)
        reader = self._voted(worker, "r", (read("r", "x"),), seq=1)
        # The reader consumed the writer's uncommitted (held) version.
        assert worker.engine.store.latest("x").value is not None
        assert reader.attempts[0].deps == {writer.attempts[0]}
        votes = worker.flush_votes([writer, reader])
        assert votes == {"w": True, "r": True}
        losers = worker.flush_apply([writer, reader], {"w", "r"})
        assert losers == []
        assert writer.attempts[0].state is TxnState.COMMITTED
        assert reader.attempts[0].state is TxnState.COMMITTED

    def test_flush_apply_aborts_undecided(self):
        worker = make_worker()
        alive = self._voted(worker, "a", (write("a", "x"),), seq=0)
        losers = worker.flush_apply([alive], set())
        assert losers == ["a"]
        assert alive.attempts[0].state is TxnState.ABORTED

    def test_dead_member_votes_no(self):
        worker = make_worker()
        doomed = self._voted(worker, "d", (write("d", "x"),), seq=0)
        worker.abort_part(doomed.attempts[0], "remote-abort")
        assert worker.flush_votes([doomed]) == {"d": False}

    def test_bad_plan_raises_engine_error(self):
        """Committing a reader without its in-batch dependency is a
        planner bug, and the worker refuses to paper over it."""
        worker = make_worker()
        writer = self._voted(worker, "w", (write("w", "x"),), seq=0)
        reader = self._voted(worker, "r", (read("r", "x"),), seq=1)
        assert reader.attempts[0].deps  # actually depends on the writer
        with pytest.raises(EngineError):
            worker.flush_apply([writer, reader], {"r"})


class TestEpochs:
    def test_epoch_closes_only_when_quiescent(self):
        worker = make_worker(epoch_max_steps=2)
        held = ticket_for(
            Transaction("t", (write("t", "x"), write("t", "y"))), seq=0
        )
        worker.execute(held)
        assert worker.wants_epoch_close
        assert not worker.maybe_close_epoch()  # held attempt is live
        worker.flush_apply([held], {"t"})  # flush triggers the close
        assert worker.engine.metrics.epochs_closed == 1

    def test_finalize_rejects_live_attempts(self):
        worker = make_worker()
        worker.execute(ticket_for(Transaction("t", (write("t", "x"),)), 0))
        with pytest.raises(EngineError):
            worker.finalize()


class TestThreadedWorker:
    def test_tasks_run_on_worker_thread_in_order(self):
        worker = make_worker()
        worker.deterministic = False
        worker.start()
        try:
            order = []
            futures = [
                worker.post(lambda k=k: order.append(k) or k)
                for k in range(20)
            ]
            assert [f.result() for f in futures] == list(range(20))
            assert order == list(range(20))
        finally:
            worker.stop()

    def test_exceptions_relayed(self):
        worker = make_worker()
        worker.deterministic = False
        worker.start()
        try:
            def boom():
                raise TransactionAborted("t", "rejected")

            with pytest.raises(TransactionAborted):
                worker.post(boom).result()
        finally:
            worker.stop()


class TestRendezvous:
    def test_last_arriver_decides_and_all_agree(self):
        decisions = []
        rendezvous = FlushRendezvous(
            2, lambda votes: {k for k, ok in votes.items() if ok}
        )

        def party(votes):
            decisions.append(rendezvous.exchange(votes))

        threads = [
            threading.Thread(target=party, args=({"a": True, "b": True},)),
            threading.Thread(target=party, args=({"b": False, "c": True},)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # b was voted down by one party: AND semantics.
        assert decisions == [{"a", "c"}, {"a", "c"}]
        assert rendezvous.decision == {"a", "c"}

    def test_decision_before_votes_raises(self):
        rendezvous = FlushRendezvous(1, lambda votes: set())
        with pytest.raises(RuntimeError):
            rendezvous.decision

    def test_abandon_wakes_the_waiting_party(self):
        """A party that cannot vote must not leave the others waiting
        for it: each raises the named error, chained from the cause."""
        rendezvous = FlushRendezvous(2, lambda votes: set(votes))
        raised = []

        def party():
            try:
                rendezvous.exchange({"a": True})
            except EngineError as error:
                raised.append(error)

        waiter = threading.Thread(target=party, daemon=True)
        waiter.start()
        crash = ValueError("vote crashed")
        rendezvous.abandon(crash)
        waiter.join(5)
        assert not waiter.is_alive()
        assert len(raised) == 1 and raised[0].__cause__ is crash
        # A late arriver raises too instead of waiting.
        with pytest.raises(EngineError):
            rendezvous.exchange({"b": True})

    def test_raising_decision_reaches_every_party(self):
        def decide(votes):
            raise ValueError("decide crashed")

        rendezvous = FlushRendezvous(1, decide)
        with pytest.raises(EngineError) as raised:
            rendezvous.exchange({"a": True})
        assert isinstance(raised.value.__cause__, ValueError)


class TestFlushCrash:
    """A flush vote that raises ends the run in a named error, in both
    modes — threaded, the other worker used to wait in the rendezvous
    forever and ``run``'s ``finally`` then blocked joining it."""

    @staticmethod
    def _run(monkeypatch, deterministic):
        crash = ValueError("vote crashed")
        honest = ShardWorker.flush_votes

        def flush_votes(self, tickets):
            if self.worker_id == 0:
                raise crash
            return honest(self, tickets)

        monkeypatch.setattr(ShardWorker, "flush_votes", flush_votes)
        scenario = scenario_factory(
            "sharded-bank", cross_fraction=0.5, seed=3
        )
        runtime = ShardRuntime(
            "mvto",
            initial=scenario.initial_state(),
            n_workers=2,
            deterministic=deterministic,
        )
        outcome = []

        def body():
            try:
                runtime.run(scenario.transaction_stream(60))
            except BaseException as error:  # noqa: BLE001 — asserted below
                outcome.append(error)

        runner = threading.Thread(target=body, daemon=True)
        runner.start()
        runner.join(5)
        assert not runner.is_alive(), "runtime hung on a crashed vote"
        assert len(outcome) == 1
        assert isinstance(outcome[0], EngineError)
        assert outcome[0].__cause__ is crash

    def test_threaded_run_ends_in_engine_error(self, monkeypatch):
        self._run(monkeypatch, deterministic=False)

    def test_deterministic_run_ends_in_engine_error(self, monkeypatch):
        self._run(monkeypatch, deterministic=True)


class TestSharedAdapter:
    def test_plan_partitionable(self):
        plan = plan_domains(scheduler_factory("mvto"), 4)
        assert plan == DomainPlan(4, 4, True, "mvto")
        assert "partitioned" in plan.note

    def test_plan_shared_lock_table(self):
        for name in ("sgt", "2pl", "2v2pl"):
            plan = plan_domains(scheduler_factory(name), 4)
            assert plan.n_domains == 1
            assert not plan.partitionable
            assert "shared lock table" in plan.note

    def test_priming_survives_reset_until_cleared(self):
        scheduler = MVTOScheduler()
        scheduler.prime_transaction("t", 42)
        scheduler.submit(read("t", "x"))
        assert scheduler._timestamps["t"] == 42
        scheduler.reset()  # primes outlive the accepted steps
        scheduler.submit(read("t", "x"))
        assert scheduler._timestamps["t"] == 42
        scheduler.clear_primes()  # epoch boundary drops them
        scheduler.reset()
        scheduler.submit(read("t", "x"))
        assert scheduler._timestamps["t"] == 0


class TestWorkerFuture:
    def test_resolve_and_done(self):
        future = WorkerFuture()
        assert not future.done
        future.resolve(5)
        assert future.done
        assert future.result() == 5

    def test_reject_reraises(self):
        future = WorkerFuture()
        future.reject(ValueError("nope"))
        with pytest.raises(ValueError):
            future.result()

    def test_inline_post_returns_a_settled_future_without_an_event(self):
        """A deterministic worker ran the task before ``post`` returned,
        so the future is born settled: no ``threading.Event``, and
        ``done``/``wait``/``result`` answer without blocking."""
        worker = make_worker()
        future = worker.post(lambda: 7)
        assert future._event is None
        assert future.done and future.wait(0)
        assert future.result() == 7

        def boom():
            raise TransactionAborted("t", "rejected")

        failed = worker.post(boom)
        assert failed._event is None
        assert failed.done and failed.wait(0)
        with pytest.raises(TransactionAborted):
            failed.result()

    def test_threaded_post_keeps_its_event(self):
        worker = make_worker()
        worker.deterministic = False
        worker.start()
        try:
            future = worker.post(lambda: 7)
            assert future._event is not None
            assert future.wait(5) and future.result() == 7
        finally:
            worker.stop()
