"""The planner driver and the execution-mode registry
(``tests/planner/test_pipeline.py`` runs the driver across batch seams)."""

import json

import pytest

import repro.planner.driver as driver_mod
from repro.db import Database, RunConfig
from repro.engine.gc import WatermarkGC
from repro.obs import Tracer
from repro.planner import BatchPlanner
from repro.workloads.bank import transfer_program, transfer_transaction
from repro.workloads.streams import ReadMostlyScenario, ShardedBankScenario

from tests.helpers import clocked


def bank(seed=5):
    return ShardedBankScenario(
        n_shards=4, accounts_per_shard=4, cross_fraction=0.2,
        hot_fraction=0.2, seed=seed,
    )


class TestDriver:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    @pytest.mark.parametrize("deterministic", [True, False])
    def test_bank_stream_commits_everything(self, deterministic, n_workers):
        scenario = bank()
        planner = clocked(BatchPlanner(
            initial=scenario.initial_state(), n_workers=n_workers,
            batch_size=16, tracer=Tracer(capacity=0),
        ), deterministic)
        metrics = planner.run(scenario.transaction_stream(120))
        assert metrics.committed == metrics.submitted == 120
        assert metrics.cc_aborts == 0
        assert metrics.logic_aborted == 0
        assert metrics.batches == 120 // 16 + 1
        assert scenario.invariant_holds(planner.final_state())
        assert planner.store.placeholder_count() == 0

    def test_partial_final_batch_runs(self):
        scenario = bank()
        planner = BatchPlanner(
            initial=scenario.initial_state(), n_workers=2,
            batch_size=1000,
        )
        metrics = planner.run(scenario.transaction_stream(30))
        assert metrics.committed == 30
        assert metrics.batches == 1

    def test_deterministic_metrics_byte_identical(self):
        dicts = []
        for _ in range(2):
            scenario = bank()
            planner = BatchPlanner(
                initial=scenario.initial_state(), n_workers=4,
                batch_size=32,
            )
            metrics = planner.run(scenario.transaction_stream(100))
            dicts.append(json.dumps(metrics.as_dict()))
        assert dicts[0] == dicts[1]

    def test_logic_abort_readers_rebind_and_commit(self):
        """The reader of a logic-aborted writer re-binds to the latest
        surviving version during execution, runs once and commits."""
        def boom(write_index, reads):
            raise RuntimeError("logic abort")

        stream = [
            (transfer_transaction("t1", "a", "b"), transfer_program(5)),
            (transfer_transaction("t2", "b", "c"), boom),
            (transfer_transaction("t3", "c", "d"), transfer_program(2)),
        ]
        planner = BatchPlanner(
            initial={k: 100 for k in "abcd"}, n_workers=2,
            batch_size=8,
        )
        metrics = planner.run(stream)
        assert metrics.committed == 2
        assert metrics.logic_aborted == metrics.aborted == 1
        assert metrics.cc_aborts == 0
        # One execution per transaction, nothing re-run: 4 steps each,
        # but t2 raises at its first write.
        assert metrics.engine.steps_submitted == 4 + 3 + 4
        state = planner.final_state()
        assert sum(state.values()) == 400
        # t3 read c from the initial base: 100 - 2 moved to d.
        assert state["c"] == 98 and state["d"] == 102
        assert planner.store.placeholder_count() == 0


class TestGCWatermark:
    @pytest.mark.parametrize("batch_size", [1, 7, 16, 300])
    @pytest.mark.parametrize("scenario", Database.scenarios())
    def test_each_settle_collects_at_the_next_batch_first_position(
        self, monkeypatch, scenario, batch_size
    ):
        """Settle collects behind the next batch's first install position
        (after the last batch: the position past every slot reserved) —
        the engine's epoch watermark with the batch as the epoch."""
        firsts, watermarks = [], []
        plan_batch, collect = driver_mod.plan_batch, WatermarkGC.collect

        def planning(items, store, first_timestamp, first_position):
            firsts.append(first_position)
            return plan_batch(items, store, first_timestamp, first_position)

        def collecting(gc, watermark):
            watermarks.append(watermark)
            return collect(gc, watermark)

        monkeypatch.setattr(driver_mod, "plan_batch", planning)
        monkeypatch.setattr(WatermarkGC, "collect", collecting)
        report = Database().run(
            scenario,
            RunConfig(mode="planner", batch_size=batch_size,
                      deterministic=True, seed=7),
            txns=300,
        )
        assert report.invariant_ok
        assert len(firsts) == -(-300 // batch_size)
        reserved = report.metrics.placeholders_reserved
        assert watermarks == firsts[1:] + [reserved]
        assert report.metrics.engine.gc.collections == len(firsts)


class TestModesRegistry:
    """The four registered modes; mode comparison runs through typed
    RunConfigs."""

    def test_registry_names(self):
        assert set(Database.backends()) == {
            "serial", "parallel", "planner", "pipelined",
        }

    @pytest.mark.parametrize(
        "mode", ["serial", "parallel", "planner", "pipelined"]
    )
    def test_all_modes_run_the_same_stream(self, mode):
        report = Database().run(
            bank(),
            RunConfig(mode=mode, workers=2, deterministic=True, seed=3),
            txns=60,
        )
        assert report.invariant_ok
        assert report.committed > 0
        assert isinstance(report.as_dict(), dict)

    def test_planner_mode_on_read_mostly(self):
        scenario = ReadMostlyScenario(n_shards=4, seed=2)
        report = Database().run(
            scenario,
            RunConfig(mode="planner", workers=4, batch_size=32),
            txns=80,
        )
        assert report.committed == 80
        assert report.cc_aborts == 0
        assert report.invariant_ok

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            RunConfig(mode="quantum")
