"""The completion order: seeded runs and exact replays.

Soundness (``docs/execution-modes.md``, "Shard runtime"): a task touches
only its own domain, so tasks of different workers commute, and a
worker runs its tasks in posting order.  The dispatcher observes its
workers only at its read points, so a run is fixed by which tasks had
settled at each of them — and a completion order can choose exactly
that.  These tests check it: a recorded seeded run replays to equal
commit and abort records, commits, final state and metrics.
"""

import pytest

from repro.db import Database, RunConfig
from repro.obs import Tracer
from repro.runtime import ShardRuntime
from repro.workloads.registry import scenario_factory

from tests.runtime.completion_order import ReplayOrder, SeededOrder, install

POINTS = {"settle", "advance", "flush", "await", "idle"}


def observed(scheduler, seed, **runtime):
    """Run the two-worker cross-shard bank stream; return what a run
    shows: per-track commit and abort records (the data they carry
    included), the commit sequence, final state and
    the metrics (wall-clock fields dropped)."""
    scenario = scenario_factory(
        "sharded-bank", cross_fraction=0.5, seed=seed
    )
    tracer = Tracer(capacity=None)
    rt = ShardRuntime(
        scheduler, initial=scenario.initial_state(), n_workers=2,
        inflight=16, batch_size=4, seed=seed,
        tracer=tracer, **runtime,
    )
    metrics = rt.run(scenario.transaction_stream(120))
    data = {}
    for event in tracer.events:
        if event.name in ("txn.commit", "txn.abort") and (
            event.track != "driver"
        ):
            data.setdefault(event.track, []).append(
                (event.name, sorted(event.args.items()))
            )
    commits = [
        e.args["txn"] for e in tracer.events
        if e.name == "txn.commit" and e.track == "driver"
    ]
    return data, commits, rt.final_state(), metrics.as_dict()


class TestSeeded:
    def test_default_order_owes_nothing(self):
        rt = ShardRuntime("mvto", n_workers=2)
        assert all(worker.owed is None for worker in rt.workers)

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_order_is_reproducible(self, seed):
        with install(SeededOrder(seed)):
            first = observed("mvto", seed, cross_stride=1)
        with install(SeededOrder(seed)):
            assert observed("mvto", seed, cross_stride=1) == first

    def test_seeded_orders_reach_every_read_point_and_owe(self):
        with install(SeededOrder(0)) as order:
            observed("mvto", 0, cross_stride=1)
        assert {point for point, _ in order.record} == POINTS

    def test_seeded_orders_change_the_interleaving(self):
        """Not a relabelled inline run: some seed commits in another
        order than the default at-post order."""
        inline = observed("mvto", 1, cross_stride=1)[1]
        seeded = []
        for seed in range(5):
            with install(SeededOrder(seed)):
                seeded.append(observed("mvto", 1, cross_stride=1)[1])
        assert any(commits != inline for commits in seeded)

    @pytest.mark.parametrize("cross_stride", [0, 1])
    @pytest.mark.parametrize("scheduler", ["mvto", "sgt"])
    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_record_replays_exactly(self, seed, scheduler,
                                           cross_stride):
        with install(SeededOrder(seed)) as order:
            seeded = observed(scheduler, seed, cross_stride=cross_stride)
        with install(ReplayOrder(order.record)) as replay:
            assert observed(
                scheduler, seed, cross_stride=cross_stride
            ) == seeded
        assert replay.at == len(order.record)
