"""``lookahead``: planning ahead without plan drift.

The one planner driver (:mod:`repro.planner.driver`) plans ``lookahead``
batches ahead of the one executing.  Pinned here: the plan at any
``lookahead`` is the sequential (``lookahead=0``) plan — byte-identical
deterministic metrics, structurally equal settled plans, equal final
state — a read planned against an earlier batch's slot whose writer
aborted re-binds when its own batch executes, GC pins keep bound read
sources alive, and a single batch never has a seam.
"""

import json

import pytest

import repro.planner.driver as driver_mod
from repro.db import Database, RunConfig
from repro.engine.errors import EngineError
from repro.model.schedules import T_INIT
from repro.obs import Tracer
from repro.planner import BatchPlanner
from repro.workloads.bank import transfer_program, transfer_transaction
from repro.workloads.streams import (
    AbortHeavyScenario,
    ReadMostlyScenario,
    ShardedBankScenario,
)

from tests.helpers import clocked

LOOKAHEADS = [0, 1, 2, 3]


def bank(seed=5):
    return ShardedBankScenario(
        n_shards=4, accounts_per_shard=4, cross_fraction=0.2,
        hot_fraction=0.2, seed=seed,
    )


def read_mostly(seed=2):
    return ReadMostlyScenario(
        n_shards=4, accounts_per_shard=4, read_fraction=0.8,
        hot_fraction=0.5, seed=seed,
    )


def abort_heavy(seed=13):
    return AbortHeavyScenario(
        n_shards=4, accounts_per_shard=4, abort_fraction=0.25,
        cross_fraction=0.3, seed=seed,
    )


def boom(write_index, reads):
    raise RuntimeError("logic abort")


def abort_stream():
    """t2 aborts in batch 1; batch 2 reads both its slots (re-bind) and
    a committed slot of t1 (no re-bind).  batch_size=2 splits here."""
    return [
        (transfer_transaction("t1", "a", "b"), transfer_program(5)),
        (transfer_transaction("t2", "b", "c"), boom),
        (transfer_transaction("t3", "c", "d"), transfer_program(2)),
        (transfer_transaction("t4", "a", "b"), transfer_program(1)),
    ]


def abort_chain_stream():
    """t2 and t3 both write b and abort inside batch 1, so t4's read of b
    (bound to t3's slot) re-binds past two poisoned slots to t1's.  Batch
    2 reads batch 1's survivors and t3's removed slot of c across the
    seam.  batch_size=4 splits here."""
    return [
        (transfer_transaction("t1", "a", "b"), transfer_program(5)),
        (transfer_transaction("t2", "b", "c"), boom),
        (transfer_transaction("t3", "c", "b"), boom),
        (transfer_transaction("t4", "b", "d"), transfer_program(1)),
        (transfer_transaction("t5", "c", "d"), transfer_program(2)),
        (transfer_transaction("t6", "b", "a"), transfer_program(3)),
    ]


class _Fixed:
    """A hand-written stream behind the scenario interface."""

    def __init__(self, initial, stream):
        self._initial, self._stream = initial, stream

    def initial_state(self):
        return dict(self._initial)

    def transaction_stream(self, n):
        return list(self._stream)[:n]


#: name -> (scenario factory, driver options, stream length): the
#: inputs every equivalence property below runs over.
CASES = {
    "read-mostly": (read_mostly, {"batch_size": 16}, 120),
    "sharded-bank": (bank, {"batch_size": 16}, 120),
    "abort-heavy": (abort_heavy, {"batch_size": 8}, 120),
    # one batch: nothing is ever in flight during execution.
    "single-batch": (bank, {"n_workers": 2, "batch_size": 1000}, 30),
    # an abort on a batch boundary: the cross-batch re-bind is exercised.
    "boundary-abort": (
        lambda: _Fixed({k: 100 for k in "abcd"}, abort_stream()),
        {"n_workers": 2, "batch_size": 2}, 4,
    ),
    # two aborted writers of one entity in a batch: a multi-step re-bind.
    "abort-chain": (
        lambda: _Fixed({k: 100 for k in "abcd"}, abort_chain_stream()),
        {"n_workers": 2, "batch_size": 4}, 6,
    ),
}


def run_case(case, lookahead, deterministic=True, tracer=None):
    """Run ``case`` traced (into ``tracer``, else a log-less one) on the
    clock a run with this ``deterministic`` gets."""
    factory, options, txns = CASES[case]
    scenario = factory()
    planner = clocked(BatchPlanner(
        initial=scenario.initial_state(), lookahead=lookahead,
        tracer=Tracer(capacity=0) if tracer is None else tracer,
        **{"n_workers": 4, **options},
    ), deterministic)
    metrics = planner.run(scenario.transaction_stream(txns))
    return planner, metrics


def plan_signature(plan):
    """A store-independent structural summary of a (settled) plan."""
    return [
        (
            ptxn.txn,
            ptxn.timestamp,
            tuple((s.entity, s.position) for s in ptxn.slots),
            tuple(sorted(ptxn.deps)),
            tuple(
                (
                    b.step_index,
                    b.source_txn,
                    b.source.entity,
                    b.source.position,
                )
                for b in ptxn.bindings
            ),
        )
        for ptxn in plan
    ]


@pytest.fixture
def plans(monkeypatch):
    """Every BatchPlan the driver produces, recorded by reference (so
    settle-time re-binds are visible in the recorded plans)."""
    recorded = []
    original = driver_mod.plan_batch

    def recording(*args, **kwargs):
        plan = original(*args, **kwargs)
        recorded.append(plan)
        return plan

    monkeypatch.setattr(driver_mod, "plan_batch", recording)
    return recorded


def committed_ids(tracer):
    return sorted(
        e.args["txn"] for e in tracer.events if e.name == "txn.commit"
    )


class TestPlanEquivalence:
    """Pipelining changes when planning happens, never what is planned."""

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("lookahead", LOOKAHEADS)
    def test_deterministic_run_identical_to_sequential(
        self, plans, case, lookahead
    ):
        seq, m_seq = run_case(case, 0)
        seq_plans = [plan_signature(p) for p in plans]
        del plans[:]
        ahead, m_ahead = run_case(case, lookahead)
        assert json.dumps(m_seq.as_dict()) == json.dumps(m_ahead.as_dict())
        assert seq.final_state() == ahead.final_state()
        assert [plan_signature(p) for p in plans] == seq_plans
        # Planning ahead only adds re-binds: those of reads bound to an
        # earlier batch's dead slot, which sequential planning binds to
        # the survivor directly.
        assert m_ahead.rebound_reads >= m_seq.rebound_reads
        if not m_seq.logic_aborted:
            assert m_ahead.rebound_reads == 0

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("lookahead", [0, 1, 2])
    def test_threaded_matches_deterministic(self, plans, case, lookahead):
        """The ``threaded`` run, traced on the wall clock, decides what
        the one traced on the tick clock does."""
        det_trace, thr_trace = Tracer(capacity=None), Tracer(capacity=None)
        det, m_det = run_case(case, lookahead, tracer=det_trace)
        det_plans = [plan_signature(p) for p in plans]
        del plans[:]
        thr, m_thr = run_case(
            case, lookahead, deterministic=False, tracer=thr_trace
        )
        assert committed_ids(det_trace) == committed_ids(thr_trace)
        assert det.final_state() == thr.final_state()
        assert [plan_signature(p) for p in plans] == det_plans
        # Same plan shape in both modes; only wall-clock may differ.
        for name in (
            "placeholders_reserved", "base_reads", "own_reads",
            "dependent_reads", "commit_deps", "rebound_reads",
            "committed",
        ):
            assert getattr(m_det, name) == getattr(m_thr, name), name

    @pytest.mark.parametrize("lookahead", [1, 2, 3])
    def test_single_batch_has_no_seam(self, lookahead):
        _, metrics = run_case("single-batch", lookahead)
        assert metrics.batches == 1
        assert metrics.rebound_reads == 0

    @pytest.mark.parametrize("lookahead", LOOKAHEADS)
    def test_latency_measures_batching_delay(self, lookahead):
        """Admission/settle ticks do not depend on how far planning runs
        ahead: first admitted waits out the whole batch, last one tick."""
        scenario = bank()
        planner = BatchPlanner(
            initial=scenario.initial_state(), n_workers=2,
            batch_size=10, lookahead=lookahead,
        )
        metrics = planner.run(scenario.transaction_stream(10))
        assert metrics.latency.max == 10
        assert metrics.latency.min == 1


class TestSeam:
    @pytest.mark.parametrize("deterministic", [True, False])
    @pytest.mark.parametrize("lookahead", [0, 1, 2])
    def test_abort_rebinds_instead_of_cascading(
        self, plans, deterministic, lookahead
    ):
        pipe, m = run_case("boundary-abort", lookahead, deterministic)
        # Planned ahead, t3/t4 bound to t2's reserved slots of c and b;
        # t2 aborts and each re-binds when batch 2 executes: they commit.
        # Planned after batch 1 settled, they bound the survivors.
        assert m.committed == 3
        assert m.logic_aborted == m.aborted == 1
        assert m.rebound_reads == (2 if lookahead else 0)
        assert m.cc_aborts == 0
        assert sum(pipe.final_state().values()) == 400
        assert pipe.store.placeholder_count() == 0
        second = {ptxn.txn: ptxn for ptxn in plans[1]}
        first_position = min(
            slot.position for ptxn in plans[1] for slot in ptxn.slots
        )
        # The survivors lie below batch 2: pre-batch state, base reads
        # — t3's c is the initial version, t4's b is t1's slot — and no
        # commit dependency names the dead writer.
        for txn, entity, position in (("t3", "c", None), ("t4", "b", 1)):
            ptxn = second[txn]
            (binding,) = [
                b for b in ptxn.bindings
                if ptxn.transaction.steps[b.step_index].entity == entity
            ]
            assert binding.source_txn == T_INIT
            assert binding.source.position == position
            assert position is None or position < first_position
            assert "t2" not in ptxn.deps

    def test_rebound_read_binds_to_committed_survivor(self):
        """t4's read of b re-binds to t1's *filled* slot (same settled
        batch), not all the way back to the pre-batch base."""
        pipe, _ = run_case("boundary-abort", 1)
        state = pipe.final_state()
        # t1 moved 5 a->b, then t4 moved 1 a->b on top of t1's balance.
        assert state["a"] == 94 and state["b"] == 106

    @pytest.mark.parametrize("deterministic", [True, False])
    @pytest.mark.parametrize("lookahead", [0, 1])
    def test_rebind_walks_past_every_aborted_writer(
        self, deterministic, lookahead
    ):
        """t4 re-binds past t3's and t2's poisoned slots of b onto t1's
        filled one; batch 2 then builds on the survivors only."""
        pipe, m = run_case("abort-chain", lookahead, deterministic)
        assert m.committed == 4
        assert m.logic_aborted == m.aborted == 2
        assert m.cc_aborts == 0
        # t1: a->b 5; t4: b->d 1; t5: c->d 2; t6: b->a 3.
        assert pipe.final_state() == {"a": 98, "b": 101, "c": 98, "d": 103}
        assert pipe.store.placeholder_count() == 0


class TestDriverContract:
    @pytest.mark.parametrize("lookahead", [0, 1])
    def test_single_use(self, lookahead):
        planner = BatchPlanner(
            n_workers=1, batch_size=4, lookahead=lookahead
        )
        planner.run([])
        with pytest.raises(EngineError):
            planner.run([])

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            BatchPlanner(n_workers=0)
        with pytest.raises(ValueError):
            BatchPlanner(batch_size=0)
        with pytest.raises(ValueError, match="lookahead"):
            BatchPlanner(lookahead=-1)

    @pytest.mark.parametrize("deterministic", [True, False])
    @pytest.mark.parametrize("lookahead", [0, 1])
    def test_stream_errors_propagate_from_the_planning_stage(
        self, deterministic, lookahead
    ):
        """A stream iterator raising mid-run fails the run instead of
        silently truncating the stream — also when it raises while
        planning ahead."""

        def broken_stream():
            yield from abort_stream()[:3]
            raise IOError("stream source died")

        planner = clocked(BatchPlanner(
            initial={k: 100 for k in "abcd"}, n_workers=2,
            batch_size=2, lookahead=lookahead, tracer=Tracer(capacity=0),
        ), deterministic)
        with pytest.raises(IOError, match="stream source died"):
            planner.run(broken_stream())

    @pytest.mark.parametrize("lookahead", [0, 1, 2])
    @pytest.mark.parametrize("fails", [False, True])
    def test_runs_on_the_callers_thread(self, monkeypatch, fails, lookahead):
        """Planning, planning ahead and execution all run inline: a run
        starts no thread at any ``lookahead``, whether it returns or
        raises."""
        import threading

        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)

        def stream():
            yield from abort_stream()
            if fails:
                raise IOError("stream source died")

        planner = BatchPlanner(
            initial={k: 100 for k in "abcd"}, n_workers=2,
            batch_size=1, lookahead=lookahead,
        )
        if fails:
            with pytest.raises(IOError):
                planner.run(stream())
        else:
            metrics = planner.run(stream())
            assert metrics.engine.epochs_closed == len(abort_stream()) > 2
        assert started == []

    @pytest.mark.parametrize("lookahead", [0, 2])
    def test_gc_bounds_version_retention(self, lookahead):
        scenario = bank()
        with_gc = BatchPlanner(
            initial=scenario.initial_state(), n_workers=4,
            batch_size=16, lookahead=lookahead,
        )
        m = with_gc.run(scenario.transaction_stream(200))
        without_gc = BatchPlanner(
            initial=scenario.initial_state(), n_workers=4,
            batch_size=16, lookahead=lookahead,
            gc_enabled=False,
        )
        n = without_gc.run(scenario.transaction_stream(200))
        assert m.committed == n.committed == 200
        # GC keeps only the per-entity bases; without it every published
        # version is retained.
        assert m.engine.final_versions < n.engine.final_versions
        assert m.engine.gc.versions_pruned > 0
        # Both realize the identical final state.
        assert with_gc.final_state() == without_gc.final_state()

    @pytest.mark.parametrize("deterministic", [True, False])
    def test_database_api_run(self, deterministic):
        report = Database().run(
            "read-mostly",
            RunConfig(
                mode="pipelined", workers=4, lookahead=2,
                deterministic=deterministic, seed=7,
            ),
            txns=120,
        )
        assert report.committed == 120
        assert report.cc_aborts == 0
        assert report.invariant_ok
        assert report.metrics.lookahead == 2

    def test_pipelined_planner_is_the_driver_with_lookahead_1(self):
        """``benchmarks/perf`` wraps ``run`` on whichever class defines
        it, so the shim must define none of its own."""
        from repro.planner.pipeline import PipelinedPlanner

        assert issubclass(PipelinedPlanner, BatchPlanner)
        assert "run" not in vars(PipelinedPlanner)
        assert PipelinedPlanner().lookahead == 1
        assert PipelinedPlanner(lookahead=3).lookahead == 3
