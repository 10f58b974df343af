"""Shard workers driven directly: votes, aborts, flush, adapters.

The macro runtime keeps conflicts rare by design (whole transactions
execute atomically inside a domain), so these tests construct the
adversarial interleavings by hand — ``begin_part`` opens a slice, the
worker's engine takes its steps (``engine.submit``/``finish``, as the
dispatcher's cross-domain coordinator posts them) — and check every
branch of the vote / flush-apply / abort machinery deterministically.
"""

import sys
import threading
from collections import deque

import pytest

from repro.engine import EngineError, OnlineEngine, TransactionAborted, TxnState
from repro.engine.factory import scheduler_factory
from repro.engine.retry import RetryPolicy
from repro.model.steps import read, write
from repro.model.transactions import Transaction
from repro.runtime.dispatch import ShardRuntime, TicketState, TxnTicket
from repro.runtime.group_commit import GroupCommitLog
from repro.runtime.shared import DomainPlan, plan_domains
from repro.runtime.worker import ShardWorker, WorkerFuture
from repro.schedulers.mvto import MVTOScheduler
from repro.storage.sharded import shard_of
from repro.workloads.registry import scenario_factory

from tests.runtime.completion_order import install


def make_worker(scheduler="mvto", initial=None, **engine_kwargs):
    engine_kwargs.setdefault("hold_commits", True)
    engine_kwargs.setdefault("gc_enabled", False)
    engine = OnlineEngine(
        scheduler_factory(scheduler),
        initial=initial or {"x": 0, "y": 0},
        **engine_kwargs,
    )
    return ShardWorker(0, engine)


def ticket_for(transaction, seq, program=None):
    return TxnTicket(
        transaction, program, transaction.txn, born_tick=0, seq=seq
    )


def run_to_error():
    """Run a 60-transaction bank stream on two workers that must fail;
    return its one error, which must come within a 5 s join."""
    scenario = scenario_factory("sharded-bank", cross_fraction=0.5, seed=3)
    runtime = ShardRuntime(
        "mvto",
        initial=scenario.initial_state(),
        n_workers=2,
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
    assert not runner.is_alive(), "runtime hung"
    [error] = outcome
    assert isinstance(error, EngineError)
    return error


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


class TestOwingWorker:
    """Under a completion order a worker owes its tasks: ``post`` queues
    them, and ``run_owed`` runs the oldest first, settling each future."""

    @staticmethod
    def _owing():
        worker = make_worker()
        worker.owed = deque()
        return worker

    def test_owed_tasks_run_in_posting_order(self):
        worker = self._owing()
        order = []
        futures = [
            worker.post(lambda k=k: order.append(k) or k) for k in range(20)
        ]
        assert not any(f.done for f in futures) and order == []
        worker.run_owed(5)
        assert [f.done for f in futures] == [True] * 5 + [False] * 15
        worker.run_owed(15)
        assert [f.result() for f in futures] == list(range(20))
        assert order == list(range(20))
        assert not worker.owed

    def test_exceptions_relayed(self):
        worker = self._owing()

        def boom():
            raise TransactionAborted("t", "rejected")

        future = worker.post(boom)
        assert not future.done
        worker.run_owed()
        assert future.done
        with pytest.raises(TransactionAborted):
            future.result()


class TestFlushAtomicity:
    """The dispatcher posts nothing to a worker between its flush vote
    and its apply; ``flush_apply`` refuses to run if anything did."""

    def test_task_between_vote_and_apply_raises(self):
        worker = make_worker()
        ticket = ticket_for(Transaction("t", (write("t", "x"),)), seq=0)
        worker.post(lambda: worker.execute(ticket)).result()
        votes = worker.post(lambda: worker.flush_votes([ticket])).result()
        assert votes == {"t": True}
        worker.post(lambda: None).result()  # the forbidden interleaving
        applied = worker.post(lambda: worker.flush_apply([ticket], {"t"}))
        with pytest.raises(EngineError, match="between its flush vote"):
            applied.result()
        assert ticket.attempts[0].state is TxnState.PENDING  # untouched

    def test_one_no_ballot_aborts_the_transaction_on_every_shard(self):
        """Ballots are AND-ed: a slice that died on one shard takes the
        live slice on the other shard down with it."""
        a = "a"
        b = next(e for e in "bcdefgh" if shard_of(e, 2) != shard_of(a, 2))
        runtime = ShardRuntime(
            "mvto", initial={a: 0, b: 0}, n_workers=2,
            retry=RetryPolicy(max_attempts=1),
        )
        ticket = ticket_for(
            Transaction("c", (write("c", a), write("c", b))), seq=0
        )
        ticket.worker_ids, ticket.attempt_no = (0, 1), 1
        for worker in runtime.workers:
            attempt = worker.begin_part(ticket, 1)
            entity = a if shard_of(a, 2) == worker.worker_id else b
            worker.engine.submit(attempt, write("c", entity), value=1)
            worker.engine.finish(attempt)
        runtime.workers[1].abort_part(ticket.attempts[1], "remote-abort")
        runtime._inflight.append(ticket)
        runtime.group_commit.add(ticket)
        assert runtime._flush() == 1
        assert ticket.attempts[0].state is TxnState.ABORTED
        assert runtime.metrics.committed == 0
        assert runtime.metrics.gave_up == 1
        assert runtime.final_state() == {a: 0, b: 0}


class TestFlushCrash:
    """A flush vote or commit decision that raises ends the run in a
    named error, at post and under seeded completion orders — with
    worker threads, a crashed vote once left the other worker waiting
    at a flush barrier and ``run``'s ``finally`` then blocked joining
    it."""

    @staticmethod
    def _run(monkeypatch, site="vote"):
        crash = ValueError(f"{site} crashed")
        honest_votes = ShardWorker.flush_votes
        honest_closure = GroupCommitLog.commit_closure

        def flush_votes(self, tickets):
            if self.worker_id == 0:
                raise crash
            return honest_votes(self, tickets)

        def commit_closure(self, votes, dep_map):
            # The flush's decision, not ``plan``'s all-yes pre-filter.
            if sys._getframe(1).f_code.co_name != "plan":
                raise crash
            return honest_closure(self, votes, dep_map)

        if site == "vote":
            monkeypatch.setattr(ShardWorker, "flush_votes", flush_votes)
        else:
            monkeypatch.setattr(
                GroupCommitLog, "commit_closure", commit_closure
            )
        assert run_to_error().__cause__ is crash

    @pytest.mark.parametrize("completion_order", range(3), indirect=True)
    def test_seeded_order_run_ends_in_engine_error(
        self, monkeypatch, completion_order
    ):
        self._run(monkeypatch)

    def test_deterministic_run_ends_in_engine_error(self, monkeypatch):
        self._run(monkeypatch)

    @pytest.mark.parametrize("completion_order", range(3), indirect=True)
    def test_seeded_order_raising_decision_ends_in_engine_error(
        self, monkeypatch, completion_order
    ):
        self._run(monkeypatch, site="decision")

    def test_deterministic_raising_decision_ends_in_engine_error(
        self, monkeypatch
    ):
        self._run(monkeypatch, site="decision")


class TestNoProgress:
    """A run whose flush rule can never be met ends in one named error,
    at post and under seeded completion orders — with worker threads,
    the dispatcher once polled for a completion that could never come,
    forever."""

    def test_flush_without_candidates_ends_in_engine_error(
        self, monkeypatch
    ):
        monkeypatch.setattr(
            GroupCommitLog, "plan", lambda self, deps_of: ([], {})
        )
        error = run_to_error()
        assert str(error) == "runtime made no progress"

    @pytest.mark.parametrize("completion_order", range(3), indirect=True)
    def test_seeded_order_flush_without_candidates_ends_in_engine_error(
        self, monkeypatch, completion_order
    ):
        monkeypatch.setattr(
            GroupCommitLog, "plan", lambda self, deps_of: ([], {})
        )
        error = run_to_error()
        assert str(error) == "runtime made no progress"

    @pytest.mark.parametrize("completion_order", range(3), indirect=True)
    def test_owed_task_is_run_before_raising(self, completion_order):
        """Only batched tickets, none executing: an abort posted without
        a wait may still doom a batched ticket's live dependency, so the
        idle round runs the owed task and raises only once the workers
        owe nothing."""
        runtime = ShardRuntime("mvto", n_workers=2)
        batched = ticket_for(Transaction("t", (read("t", "x"),)), seq=0)
        batched.state = TicketState.BATCHED
        runtime._inflight.append(batched)
        owed = runtime.workers[1].post(lambda: None)
        assert not owed.done
        runtime._idle()
        assert owed.done
        with pytest.raises(EngineError, match="made no progress"):
            runtime._idle()

    def test_an_order_that_runs_nothing_ends_in_engine_error(self):
        """An idle round whose completion order runs none of the owed
        tasks cannot progress either."""
        class RunsNothing:
            def __call__(self, workers, point, awaited):
                pass

        with install(RunsNothing()):
            runtime = ShardRuntime("mvto", n_workers=2)
            batched = ticket_for(Transaction("t", (read("t", "x"),)), 0)
            batched.state = TicketState.BATCHED
            runtime._inflight.append(batched)
            runtime.workers[0].post(lambda: None)
            with pytest.raises(EngineError, match="made no progress"):
                runtime._idle()


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
    def test_unsettled_result_raises_instead_of_blocking(self):
        future = WorkerFuture()
        assert not future.done
        with pytest.raises(EngineError, match="unsettled worker future"):
            future.result()

    def test_settled_value_and_error(self):
        assert WorkerFuture(True, 5).result() == 5
        with pytest.raises(ValueError):
            WorkerFuture(True, error=ValueError("nope")).result()

    def test_inline_post_returns_a_settled_future(self):
        """By default a worker runs the task before ``post`` returns,
        so the future is born settled and nothing is owed."""
        worker = make_worker()
        future = worker.post(lambda: 7)
        assert future.done and future.result() == 7

        def boom():
            raise TransactionAborted("t", "rejected")

        failed = worker.post(boom)
        assert failed.done
        with pytest.raises(TransactionAborted):
            failed.result()
        assert worker.owed is None
