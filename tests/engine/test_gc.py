"""Garbage collector: safety (live readers keep their versions) and
effectiveness (write-heavy streams shrink)."""

from repro.engine import (
    ConcurrentDriver,
    OnlineEngine,
    WatermarkGC,
    scheduler_factory,
)
from repro.model.steps import read, write
from repro.model.transactions import Transaction
from repro.storage.mvstore import MultiversionStore
from repro.workloads.inventory import InventoryWorkload


def writer_txn(txn, entity="x"):
    return Transaction(txn, (read(txn, entity), write(txn, entity)))


class TestSafety:
    def test_mid_epoch_collection_never_reaches_into_the_epoch(self):
        """The watermark sits at epoch start: versions the current epoch
        installed — and every entity's base version — are untouchable, so
        an already-running reader keeps everything it can be assigned."""
        engine = OnlineEngine(
            scheduler_factory("mvto"),
            initial={"x": 5, "y": 7},
            gc_enabled=True,
            gc_every_commits=0,  # manual collections only
        )
        # Epoch 1 churns y and closes (collecting down to bases).
        for k in range(3):
            engine.run_transaction(
                writer_txn(f"e1w{k}", "y"), lambda i, reads: reads[0] + 1
            )
        engine.close_epoch()
        base_y = engine.store.latest("y").value
        # Epoch 2: a long reader starts, then writers churn y again.
        audit = engine.begin("audit", 2)
        assert engine.submit(audit, read("audit", "x")) == 5
        for k in range(3):
            engine.run_transaction(
                writer_txn(f"e2w{k}", "y"), lambda i, reads: reads[0] + 1
            )
        churned = engine.store.version_count()
        assert engine.run_gc() == 0  # all of it is epoch-2 or base
        assert engine.store.version_count() == churned
        # MVTO serves the audit y's newest version older than itself —
        # exactly the epoch base the GC is required to retain.
        assert engine.submit(audit, read("audit", "y")) == base_y
        engine.finish(audit)
        assert audit.state.value == "committed"

    def test_gc_after_every_commit_is_observationally_invisible(self):
        """Aggressive collection (after every single commit, interleaved
        with live readers at every point of the run) must not change any
        outcome: same commits, same aborts, same final state as no GC."""

        def run(gc_enabled):
            workload = InventoryWorkload(n_warehouses=3, seed=9)
            engine = OnlineEngine(
                scheduler_factory("mvto"),
                initial=workload.initial_state(),
                gc_enabled=gc_enabled,
                gc_every_commits=1,
                epoch_max_steps=32,
            )
            driver = ConcurrentDriver(
                engine, workload.transaction_stream(60), n_sessions=3, seed=4
            )
            metrics = driver.run()
            return metrics, engine.store.final_state()

        gc_metrics, gc_state = run(True)
        raw_metrics, raw_state = run(False)
        assert gc_state == raw_state
        assert gc_metrics.committed == raw_metrics.committed
        assert gc_metrics.aborted_total == raw_metrics.aborted_total
        assert gc_metrics.retries == raw_metrics.retries
        assert gc_metrics.gc.versions_pruned > 0

    def test_prune_before_retains_base_version(self):
        store = MultiversionStore({"x": 0})
        for k in range(5):
            store.install("x", f"t{k}", k, position=k)
        removed = store.prune_before("x", 3)
        # initial, v0, v1 below the newest-below-watermark v2: 3 pruned.
        assert removed == 3
        values = [v.value for v in store.versions("x")]
        assert values == [2, 3, 4]
        # The survivor below the watermark is still addressable.
        assert store.at_position("x", 2).value == 2

    def test_prune_before_noop_cases(self):
        store = MultiversionStore()
        assert store.prune_before("untouched", 100) == 0
        store.install("x", "t", "v", position=5)
        assert store.prune_before("x", 0) == 0  # nothing below watermark


class TestEffectiveness:
    def run_inventory(self, gc_enabled):
        workload = InventoryWorkload(n_warehouses=3, seed=5)
        engine = OnlineEngine(
            scheduler_factory("mvto"),
            initial=workload.initial_state(),
            gc_enabled=gc_enabled,
            gc_every_commits=8,
            epoch_max_steps=64,
        )
        driver = ConcurrentDriver(
            engine, workload.transaction_stream(80), n_sessions=3, seed=2
        )
        metrics = driver.run()
        assert workload.invariant_holds(engine.store.final_state())
        return metrics

    def test_version_count_shrinks_under_write_heavy_stream(self):
        with_gc = self.run_inventory(gc_enabled=True)
        without = self.run_inventory(gc_enabled=False)
        assert with_gc.committed == without.committed
        assert with_gc.gc.versions_pruned > 0
        assert with_gc.final_versions < without.final_versions
        # Bounded retention: only bases survive at the final quiescent
        # collection (3 warehouses + ledger).
        assert with_gc.final_versions == 4

    def test_gc_stats_accounting(self):
        metrics = self.run_inventory(gc_enabled=True)
        stats = metrics.gc
        assert stats.collections > 0
        assert stats.last_after <= stats.last_before
        assert stats.last_before - stats.last_after <= stats.versions_pruned
        assert stats.peak_versions >= stats.last_before
        assert metrics.final_versions == stats.last_after

    def test_watermark_gc_direct(self):
        store = MultiversionStore({"x": 0})
        for k in range(10):
            store.install("x", "w", k, position=k)
        gc = WatermarkGC(store)
        pruned = gc.collect(watermark=10)
        assert pruned == 10  # all but the newest-below-watermark version
        assert store.version_count() == 1
        assert store.latest("x").value == 9
        assert gc.stats.versions_pruned == 10
        assert gc.stats.collections == 1
