"""End-to-end shard runtime: invariants, determinism, contention, modes."""

import json
import sys
import threading

import pytest

from repro.db import Database, RunConfig
from repro.engine import EngineError, RetryPolicy
from repro.runtime import ShardRuntime, TicketState
from repro.workloads.inventory import InventoryWorkload
from repro.workloads.streams import ShardedBankScenario

PARTITIONABLE = ["mvto", "si"]
SHARED = ["sgt", "2pl", "2v2pl"]


def mild_scenario(seed=5):
    return ShardedBankScenario(
        n_shards=4,
        accounts_per_shard=4,
        cross_fraction=0.2,
        hot_fraction=0.2,
        audit_every=9,
        seed=seed,
    )


def hot_scenario(seed=5):
    """Few accounts, mostly cross-shard — the adversarial regime."""
    return ShardedBankScenario(
        n_shards=4,
        accounts_per_shard=2,
        cross_fraction=0.8,
        hot_fraction=0.0,
        seed=seed,
    )


def run_bank(scenario, scheduler, n_txns=120, **kwargs):
    kwargs.setdefault("n_workers", 4)
    kwargs.setdefault("batch_size", 8)
    kwargs.setdefault("seed", 11)
    runtime = ShardRuntime(
        scheduler, initial=scenario.initial_state(), **kwargs
    )
    metrics = runtime.run(scenario.transaction_stream(n_txns))
    return runtime, metrics


def check_accounting(metrics):
    assert metrics.committed + metrics.gave_up == metrics.submitted
    assert metrics.aborted == metrics.retries + metrics.gave_up
    assert metrics.group_commit.flushed == metrics.committed


class TestInvariants:
    @pytest.mark.parametrize("scheduler", PARTITIONABLE + SHARED)
    @pytest.mark.parametrize("deterministic", [True, False])
    def test_conservation_all_schedulers_both_modes(
        self, scheduler, deterministic
    ):
        scenario = mild_scenario()
        runtime, metrics = run_bank(
            scenario, scheduler, deterministic=deterministic
        )
        assert scenario.invariant_holds(runtime.final_state())
        check_accounting(metrics)
        assert metrics.committed >= 0.7 * metrics.submitted

    @pytest.mark.parametrize("scheduler", PARTITIONABLE)
    def test_conservation_under_adversarial_interleaving(self, scheduler):
        """cross_stride=1 maximally interleaves cross-shard transactions:
        rejections, cascades and flush-aborts all fire, and conservation
        still holds."""
        scenario = hot_scenario()
        runtime, metrics = run_bank(
            scenario,
            scheduler,
            n_txns=150,
            deterministic=True,
            inflight=16,
            batch_size=4,
            cross_stride=1,
        )
        assert scenario.invariant_holds(runtime.final_state())
        check_accounting(metrics)
        assert metrics.aborted > 0  # contention actually happened
        per_worker = metrics.per_worker
        assert sum(w["rejected"] for w in per_worker) > 0
        assert sum(w["external"] for w in per_worker) > 0

    def test_inventory_reconciliation(self):
        """Every order touches the shipped ledger: cross-shard heavy."""
        workload = InventoryWorkload(n_warehouses=6, seed=4)
        runtime = ShardRuntime(
            "mvto",
            initial=workload.initial_state(),
            n_workers=4,
            batch_size=6,
            deterministic=True,
            seed=1,
        )
        metrics = runtime.run(workload.transaction_stream(80))
        assert workload.invariant_holds(runtime.final_state())
        assert metrics.cross_shard > 0
        check_accounting(metrics)


class TestDeterminism:
    @pytest.mark.parametrize("scheduler", ["mvto", "si", "sgt"])
    def test_same_seed_byte_identical_metrics(self, scheduler):
        dumps = []
        for _ in range(2):
            scenario = hot_scenario()
            runtime, metrics = run_bank(
                scenario,
                scheduler,
                deterministic=True,
                cross_stride=1,
                inflight=12,
            )
            dumps.append(json.dumps(metrics.as_dict(), sort_keys=True))
        assert dumps[0] == dumps[1]

    def test_distinct_seeds_differ(self):
        dumps = []
        for seed in (1, 2):
            scenario = hot_scenario()
            runtime, metrics = run_bank(
                scenario,
                "mvto",
                deterministic=True,
                cross_stride=1,
                inflight=12,
                seed=seed,
            )
            dumps.append(json.dumps(metrics.as_dict(), sort_keys=True))
        assert dumps[0] != dumps[1]


class TestTopology:
    def test_partitionable_gets_one_domain_per_worker(self):
        runtime, metrics = run_bank(
            mild_scenario(), "mvto", deterministic=True
        )
        assert metrics.effective_domains == 4
        assert len(runtime.workers) == 4
        assert len(metrics.per_worker) == 4
        # work actually spread across shard domains
        busy = [w for w in metrics.per_worker if w["committed"] > 0]
        assert len(busy) == 4

    def test_shared_lock_table_collapses_to_one_domain(self):
        runtime, metrics = run_bank(
            mild_scenario(), "sgt", deterministic=True
        )
        assert metrics.effective_domains == 1
        assert not metrics.partitionable
        assert len(runtime.workers) == 1
        # one conflict domain means one store partition as well
        assert runtime.store.n_shards == 1
        assert metrics.per_worker[0]["committed"] == metrics.committed

    def test_single_worker_runs_everything_locally(self):
        scenario = mild_scenario()
        runtime, metrics = run_bank(
            scenario, "mvto", n_workers=1, deterministic=True
        )
        assert metrics.cross_shard == 0
        assert metrics.single_shard == metrics.submitted
        assert scenario.invariant_holds(runtime.final_state())


class TestGroupCommitEndToEnd:
    def test_batches_respect_batch_size_threshold(self):
        _, metrics = run_bank(
            mild_scenario(), "mvto", deterministic=True, batch_size=4
        )
        gc = metrics.group_commit
        assert gc.batches >= metrics.committed / 16
        assert gc.flushed == metrics.committed

    def test_batch_size_one_is_eager_commit(self):
        scenario = mild_scenario()
        runtime, metrics = run_bank(
            scenario, "mvto", deterministic=True, batch_size=1
        )
        assert scenario.invariant_holds(runtime.final_state())
        assert metrics.group_commit.batches >= metrics.committed / 16

    def test_epoch_close_forces_flushes_and_gc(self):
        """Tiny epochs: held commits would block epoch close forever
        unless the dispatcher forces flushes; GC then prunes."""
        scenario = mild_scenario()
        runtime, metrics = run_bank(
            scenario,
            "mvto",
            n_txns=150,
            deterministic=True,
            batch_size=64,  # would starve without forcing
            epoch_max_steps=32,
        )
        assert scenario.invariant_holds(runtime.final_state())
        assert metrics.group_commit.forced > 0
        epochs = sum(w["epochs"] for w in metrics.per_worker)
        assert epochs > 0
        assert sum(w["gc_pruned"] for w in metrics.per_worker) > 0

    def test_latency_recorded_per_commit(self):
        _, metrics = run_bank(mild_scenario(), "mvto", deterministic=True)
        assert metrics.latency.count == metrics.committed
        assert metrics.latency.min <= metrics.latency.p95 <= metrics.latency.max


class TestLifecycle:
    def test_runtime_is_single_use(self):
        scenario = mild_scenario()
        runtime, _ = run_bank(scenario, "mvto", deterministic=True)
        with pytest.raises(EngineError):
            runtime.run(scenario.transaction_stream(1))

    def test_retry_budget_exhaustion_counts_gave_up(self):
        scenario = hot_scenario()
        runtime, metrics = run_bank(
            scenario,
            "mvto",
            n_txns=120,
            deterministic=True,
            cross_stride=1,
            inflight=16,
            batch_size=4,
            retry=RetryPolicy(max_attempts=1, backoff_base=0, jitter=False),
        )
        # One attempt each: every abort is a permanent drop, and the
        # invariant still holds (aborts are atomic).
        assert metrics.retries == 0
        assert metrics.gave_up == metrics.aborted
        assert metrics.gave_up > 0
        assert scenario.invariant_holds(runtime.final_state())

    def test_empty_stream(self):
        runtime = ShardRuntime(
            "mvto", initial={"x": 0}, n_workers=2, deterministic=True
        )
        metrics = runtime.run(iter(()))
        assert metrics.submitted == 0
        assert metrics.committed == 0

    def test_ticket_states_terminal(self):
        runtime, metrics = run_bank(
            mild_scenario(), "mvto", deterministic=True
        )
        assert not runtime._inflight
        assert len(runtime.group_commit) == 0


class TestThreaded:
    """Real threads: same invariants, nondeterministic interleaving."""

    @pytest.mark.parametrize("scheduler", PARTITIONABLE)
    def test_threaded_conservation_and_accounting(self, scheduler):
        scenario = mild_scenario()
        runtime, metrics = run_bank(
            scenario, scheduler, n_txns=150, deterministic=False
        )
        assert scenario.invariant_holds(runtime.final_state())
        check_accounting(metrics)

    def test_threaded_adversarial_stride(self):
        scenario = hot_scenario()
        runtime, metrics = run_bank(
            scenario,
            "mvto",
            n_txns=120,
            deterministic=False,
            cross_stride=1,
            inflight=16,
            batch_size=4,
        )
        assert scenario.invariant_holds(runtime.final_state())
        check_accounting(metrics)

    def test_threaded_shared_lock_table(self):
        scenario = mild_scenario()
        runtime, metrics = run_bank(
            scenario, "2v2pl", n_txns=100, deterministic=False
        )
        assert scenario.invariant_holds(runtime.final_state())
        check_accounting(metrics)

    @pytest.mark.parametrize("batch", [1, 16])
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("scheduler", PARTITIONABLE)
    def test_threaded_e16_stream_drops_nothing_silently(
        self, scheduler, workers, batch
    ):
        """The E16 stream (``repro.bench`` suite ``e16``) under real
        threads, default ``RetryPolicy``.  The property is the identity,
        not ``committed == 400``: which attempts collide depends on the
        interleaving, and a cross-shard transaction that loses all 8 of
        its attempts is *reported* as ``gave_up`` (mvto at 4 workers has
        been seen to commit 399) — never a silently short count."""
        report = Database().run(
            "sharded-bank",
            RunConfig(
                mode="parallel", scheduler=scheduler, workers=workers,
                batch_size=batch, deterministic=False, seed=11,
            ),
            txns=400,
            n_shards=4, accounts_per_shard=4, cross_fraction=0.1,
            hot_fraction=0.2, seed=5,
        )
        assert report.invariant_ok and report.invariant_checked
        assert report.submitted == 400
        assert report.committed + report.gave_up == report.submitted
        assert report.committed >= 0.9 * report.submitted
        check_accounting(report.metrics)

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("scheduler", PARTITIONABLE)
    def test_flush_without_barrier_under_forced_switching(
        self, scheduler, workers
    ):
        """Multi-party flushes on real threads switching every 10 µs:
        no barrier holds a worker between its vote and its apply, yet
        every run ends within its join, certifies 1-SR, keeps the
        invariant and accounts for every transaction."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for seed in range(12):
                config = RunConfig(
                    mode="parallel", scheduler=scheduler, workers=workers,
                    deterministic=False, seed=seed, audit=True,
                )
                reports = []
                runner = threading.Thread(
                    target=lambda: reports.append(Database().run(
                        "sharded-bank", config, txns=120,
                        cross_fraction=0.5, seed=seed,
                    )),
                    daemon=True,
                )
                runner.start()
                runner.join(10)
                assert not runner.is_alive(), f"seed {seed} hung"
                (report,) = reports
                assert report.audit.ok, report.audit.format()
                assert report.invariant_ok
                assert report.committed + report.gave_up == report.submitted
        finally:
            sys.setswitchinterval(interval)
