"""Core engine flows: commit path, epochs, accounting."""

import pytest

from repro.db import Database, RunConfig
from repro.engine import (
    ConcurrentDriver,
    EngineError,
    OnlineEngine,
    TxnState,
    scheduler_factory,
)
from repro.model.steps import read, write
from repro.model.transactions import Transaction
from repro.obs import Tracer, to_jsonl
from repro.storage.mvstore import MultiversionStore
from repro.storage.sharded import ShardedMultiversionStore
from repro.workloads import scenario_factory
from repro.workloads.bank import (
    BankWorkload,
    transfer_program,
    transfer_transaction,
)

from tests.helpers import tick_clock


def make_engine(name="mvto", **kwargs):
    kwargs.setdefault("initial", {"x": 10, "y": 20})
    return OnlineEngine(scheduler_factory(name), **kwargs)


class TestCommitPath:
    def test_serial_transfer_commits_and_moves_money(self):
        engine = OnlineEngine(
            scheduler_factory("mvto"), initial={"a": 100, "b": 100}
        )
        txn = transfer_transaction("t1", "a", "b")
        attempt = engine.run_transaction(txn, transfer_program(30))
        assert attempt.state is TxnState.COMMITTED
        state = engine.store.final_state()
        assert state["a"] == 70 and state["b"] == 130
        assert engine.metrics.committed == 1
        assert engine.metrics.aborted_total == 0

    def test_reads_feed_programs_in_read_order(self):
        engine = make_engine()
        txn = Transaction("t", (read("t", "x"), read("t", "y"), write("t", "x")))
        attempt = engine.begin("t", 3, lambda k, reads: sum(reads))
        for step in txn.steps:
            engine.submit(attempt, step)
        engine.finish(attempt)
        assert engine.store.latest("x").value == 30

    def test_herbrand_semantics_without_program(self):
        engine = make_engine()
        txn = Transaction("t", (read("t", "x"), write("t", "x")))
        engine.run_transaction(txn)
        value = engine.store.latest("x").value
        assert value == ("w", "t", 0, (10,))

    def test_every_scheduler_commits_a_serial_stream(self):
        for name in ["mvto", "2v2pl", "2pl", "sgt", "si"]:
            engine = OnlineEngine(
                scheduler_factory(name), initial={"a": 100, "b": 100}
            )
            for k in range(5):
                txn = transfer_transaction(f"t{k}", "a", "b")
                attempt = engine.run_transaction(txn, transfer_program(10))
                assert attempt.state is TxnState.COMMITTED, name
            assert engine.metrics.committed == 5
            state = engine.store.final_state()
            assert state["a"] == 50 and state["b"] == 150

    def test_accepts_plain_multiversion_store(self):
        engine = OnlineEngine(
            scheduler_factory("mvto"),
            store=MultiversionStore({"a": 100, "b": 100}),
        )
        txn = transfer_transaction("t1", "a", "b")
        engine.run_transaction(txn, transfer_program(5))
        assert engine.store.final_state()["a"] == 95

    @pytest.mark.parametrize("scheduler", ["mvto", "sgt"])
    def test_default_store_runs_like_a_runtime_shard(self, scheduler):
        """The engine's default store is one plain store; the same run
        over the shard the shard runtime hands a domain's engine
        (``store=container.shards[d]``) is the same run."""
        initial = BankWorkload(n_accounts=6).initial_state()

        def run(**store):
            workload = BankWorkload(n_accounts=6, seed=2)
            tracer = Tracer(capacity=None)
            engine = OnlineEngine(
                scheduler_factory(scheduler),
                gc_every_commits=4,
                epoch_max_steps=48,
                tracer=tracer,
                **store,
            )
            tick_clock(tracer, engine.metrics)
            metrics = ConcurrentDriver(
                engine, workload.transaction_stream(150), n_sessions=4, seed=1
            ).run()
            assert metrics.aborted_total > 0 and metrics.gc.versions_pruned
            return (
                engine.store,
                metrics.as_dict(),
                engine.store.final_state(),
                to_jsonl(tracer),
            )

        container = ShardedMultiversionStore(1, initial)
        default = run(initial=initial)
        shard = run(store=container.shards[0])
        assert type(default[0]) is MultiversionStore
        assert shard[0] is container.shards[0]
        assert default[1:] == shard[1:]
        assert container.final_state() == shard[2]


class TestHeldFinish:
    """``finish`` does not finalize for a held attempt: it commits nobody
    by finishing, and readiness moves only on a commit, a release or an
    abort, each of which finalizes.  The parallel runtime holds every
    attempt; its runs must be those of an engine that finalizes on every
    finish, as it did before the skip."""

    @pytest.mark.parametrize("scheduler", ["mvto", "sgt"])
    def test_finalizing_after_a_held_finish_changes_nothing(
        self, scheduler, monkeypatch
    ):
        def run():
            tracer = Tracer(capacity=None)
            report = Database().run(
                scenario_factory(
                    "abort-heavy", seed=5, n_shards=2, accounts_per_shard=2,
                    abort_fraction=0.2, cross_fraction=0.4,
                ),
                RunConfig(mode="parallel", scheduler=scheduler, seed=3,
                          trace=tracer, workers=2, batch_size=4,
                          deterministic=True, epoch_max_steps=48),
                txns=120,
            )
            assert report.invariant_ok and report.aborted > 0
            return report.as_dict(), report.final_state, to_jsonl(tracer)

        skipping = run()
        finish, held = OnlineEngine.finish, []

        def finalizing(engine, attempt):
            state = finish(engine, attempt)
            if attempt.hold:
                held.append(attempt)
                engine._finalize_ready()
            return state

        monkeypatch.setattr(OnlineEngine, "finish", finalizing)
        assert run() == skipping
        assert held


class TestEpochs:
    def test_close_epoch_resets_scheduler_and_log(self):
        engine = make_engine(epoch_max_steps=4)
        engine.run_transaction(
            Transaction("t", (read("t", "x"), write("t", "x")))
        )
        assert len(engine.log) == 2
        engine.close_epoch()
        assert engine.log == []
        assert engine.scheduler.accepted_steps == []
        assert engine.metrics.epochs_closed == 1

    def test_close_epoch_refuses_with_live_transactions(self):
        engine = make_engine()
        attempt = engine.begin("t", 2)
        engine.submit(attempt, read("t", "x"))
        with pytest.raises(EngineError):
            engine.close_epoch()

    def test_wants_epoch_close_when_log_full(self):
        engine = make_engine(epoch_max_steps=2)
        assert not engine.wants_epoch_close
        engine.run_transaction(
            Transaction("t", (read("t", "x"), write("t", "x")))
        )
        assert engine.wants_epoch_close

    def test_values_survive_epoch_boundaries(self):
        engine = OnlineEngine(
            scheduler_factory("mvto"), initial={"a": 100, "b": 100}
        )
        engine.run_transaction(
            transfer_transaction("t1", "a", "b"), transfer_program(30)
        )
        engine.close_epoch()
        engine.run_transaction(
            transfer_transaction("t2", "a", "b"), transfer_program(20)
        )
        state = engine.store.final_state()
        assert state["a"] == 50 and state["b"] == 150


class TestGuards:
    def test_submit_wrong_txn_step_raises(self):
        engine = make_engine()
        attempt = engine.begin("t", 1)
        with pytest.raises(EngineError):
            engine.submit(attempt, read("other", "x"))

    def test_finish_before_all_steps_raises(self):
        engine = make_engine()
        attempt = engine.begin("t", 2)
        engine.submit(attempt, read("t", "x"))
        with pytest.raises(EngineError):
            engine.finish(attempt)

    def test_unknown_scheduler_name_raises(self):
        with pytest.raises(ValueError):
            scheduler_factory("nope")

    def test_degenerate_parameters_rejected(self):
        # Both of these would otherwise make the driver loop forever.
        with pytest.raises(ValueError):
            make_engine(epoch_max_steps=0)
        from repro.engine import ConcurrentDriver

        with pytest.raises(ValueError):
            ConcurrentDriver(make_engine(), iter(()), n_sessions=0)
