"""The planner driver across batch seams, and the ``pipelined`` name.

The one planner driver (:mod:`repro.planner.driver`) plans, executes and
settles one batch at a time.  Pinned here: a deterministic re-run is
byte-identical (metrics, settled plans, final state) and the wall-clock
trace decides what the tick trace does; GC on or off and any batch size
decide the same; a batch planned after an earlier one settled binds that
batch's survivors directly, past its dead writers; a single batch never
has a seam; and ``pipelined`` — kept as a name whose ``lookahead`` is
echoed — reports what ``planner`` does on every registered scenario.
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
    # one batch: no seam at all.
    "single-batch": (bank, {"n_workers": 2, "batch_size": 1000}, 30),
    # an abort on a batch boundary: the next batch reads past it.
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


def run_case(case, deterministic=True, tracer=None, **overrides):
    """Run ``case`` traced (into ``tracer``, else a log-less one) on the
    clock a run with this ``deterministic`` gets; ``overrides`` replace
    the case's driver options."""
    factory, options, txns = CASES[case]
    scenario = factory()
    planner = clocked(BatchPlanner(
        initial=scenario.initial_state(),
        tracer=Tracer(capacity=0) if tracer is None else tracer,
        **{"n_workers": 4, **options, **overrides},
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
    """Equal seeds plan, settle and count the same."""

    @pytest.mark.parametrize("case", CASES)
    def test_deterministic_rerun_is_identical(self, plans, case):
        first, m_first = run_case(case)
        first_plans = [plan_signature(p) for p in plans]
        del plans[:]
        again, m_again = run_case(case)
        assert json.dumps(m_first.as_dict()) == json.dumps(m_again.as_dict())
        assert first.final_state() == again.final_state()
        assert [plan_signature(p) for p in plans] == first_plans
        assert m_again.rebound_reads == m_first.rebound_reads
        if not m_first.logic_aborted:
            assert m_first.rebound_reads == 0

    @pytest.mark.parametrize("case", CASES)
    def test_threaded_matches_deterministic(self, plans, case):
        """The ``threaded`` run, traced on the wall clock, decides what
        the one traced on the tick clock does."""
        det_trace, thr_trace = Tracer(capacity=None), Tracer(capacity=None)
        det, m_det = run_case(case, tracer=det_trace)
        det_plans = [plan_signature(p) for p in plans]
        del plans[:]
        thr, m_thr = run_case(case, deterministic=False, tracer=thr_trace)
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

    @pytest.mark.parametrize("deterministic", [True, False])
    @pytest.mark.parametrize("case", CASES)
    def test_gc_changes_no_decision(self, plans, case, deterministic):
        """Settle collects only behind the next batch's first install
        position, below any read a later batch binds: GC on and off
        plan, settle and commit the same, and differ only in the
        versions they keep."""
        on_trace, off_trace = Tracer(capacity=None), Tracer(capacity=None)
        on, m_on = run_case(case, deterministic, tracer=on_trace)
        on_plans = [plan_signature(p) for p in plans]
        del plans[:]
        off, m_off = run_case(
            case, deterministic, tracer=off_trace, gc_enabled=False
        )
        kept = ("peak_versions", "final_versions", "gc_pruned")
        d_on, d_off = m_on.as_dict(), m_off.as_dict()
        for name in kept:
            del d_on["engine"][name], d_off["engine"][name]
        assert json.dumps(d_on) == json.dumps(d_off)
        assert [plan_signature(p) for p in plans] == on_plans
        assert committed_ids(on_trace) == committed_ids(off_trace)
        assert on.final_state() == off.final_state()
        assert m_off.engine.gc.versions_pruned == 0
        assert m_off.engine.final_versions >= m_on.engine.final_versions

    @pytest.mark.parametrize("batch_size", [2, 3, 8, 32, 1000])
    @pytest.mark.parametrize(
        "case", ["read-mostly", "sharded-bank", "abort-heavy"]
    )
    def test_batch_size_changes_no_answer(self, case, batch_size):
        """A batch serializes in timestamp order and settles before the
        next is planned, so any batch size realizes what one
        transaction per batch (the serial run) does."""
        serial_trace, batched_trace = (
            Tracer(capacity=None), Tracer(capacity=None),
        )
        serial, m_serial = run_case(case, tracer=serial_trace, batch_size=1)
        batched, m_batched = run_case(
            case, tracer=batched_trace, batch_size=batch_size
        )
        assert committed_ids(batched_trace) == committed_ids(serial_trace)
        assert batched.final_state() == serial.final_state()
        assert m_batched.logic_aborted == m_serial.logic_aborted
        assert m_batched.cc_aborts == m_serial.cc_aborts == 0
        assert m_batched.batches == -(-m_batched.submitted // batch_size)
        assert batched.store.placeholder_count() == 0

    @pytest.mark.parametrize("deterministic", [True, False])
    def test_single_batch_has_no_seam(self, deterministic):
        _, metrics = run_case("single-batch", deterministic)
        assert metrics.batches == 1
        assert metrics.rebound_reads == 0

    @pytest.mark.parametrize("batch_size", [1, 4, 10])
    def test_latency_measures_batching_delay(self, batch_size):
        """Latency counts admission to settle ticks: the first admitted
        waits out the whole batch, the last one tick."""
        scenario = bank()
        planner = BatchPlanner(
            initial=scenario.initial_state(), n_workers=2,
            batch_size=batch_size,
        )
        metrics = planner.run(scenario.transaction_stream(10))
        assert metrics.latency.max == batch_size
        assert metrics.latency.min == 1


class TestSeam:
    @pytest.mark.parametrize("deterministic", [True, False])
    def test_next_batch_binds_past_a_dead_writer(self, plans, deterministic):
        pipe, m = run_case("boundary-abort", deterministic)
        # t2 aborts in batch 1; batch 2 is planned after batch 1 settled,
        # so t3/t4 bind the survivors directly and commit.
        assert m.committed == 3
        assert m.logic_aborted == m.aborted == 1
        assert m.rebound_reads == 0
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

    def test_next_batch_reads_the_committed_survivor(self):
        """t4's read of b binds to t1's *filled* slot (the settled batch
        before it), not all the way back to the initial version."""
        pipe, _ = run_case("boundary-abort")
        state = pipe.final_state()
        # t1 moved 5 a->b, then t4 moved 1 a->b on top of t1's balance.
        assert state["a"] == 94 and state["b"] == 106

    @pytest.mark.parametrize("deterministic", [True, False])
    def test_rebind_walks_past_every_aborted_writer(self, deterministic):
        """t4 re-binds past t3's and t2's poisoned slots of b onto t1's
        filled one; batch 2 then builds on the survivors only."""
        pipe, m = run_case("abort-chain", deterministic)
        assert m.committed == 4
        assert m.logic_aborted == m.aborted == 2
        assert m.cc_aborts == 0
        # t1: a->b 5; t4: b->d 1; t5: c->d 2; t6: b->a 3.
        assert pipe.final_state() == {"a": 98, "b": 101, "c": 98, "d": 103}
        assert pipe.store.placeholder_count() == 0


class TestDriverContract:
    def test_single_use(self):
        planner = BatchPlanner(n_workers=1, batch_size=4)
        planner.run([])
        with pytest.raises(EngineError):
            planner.run([])

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            BatchPlanner(n_workers=0)
        with pytest.raises(ValueError):
            BatchPlanner(batch_size=0)
        # One schedule: nothing is planned ahead, so nothing to select.
        with pytest.raises(TypeError, match="lookahead"):
            BatchPlanner(lookahead=1)

    @pytest.mark.parametrize("deterministic", [True, False])
    def test_stream_errors_propagate_from_the_planning_stage(
        self, deterministic
    ):
        """A stream iterator raising mid-run fails the run instead of
        silently truncating the stream — also after batches settled."""

        def broken_stream():
            yield from abort_stream()[:3]
            raise IOError("stream source died")

        planner = clocked(BatchPlanner(
            initial={k: 100 for k in "abcd"}, n_workers=2,
            batch_size=2, tracer=Tracer(capacity=0),
        ), deterministic)
        with pytest.raises(IOError, match="stream source died"):
            planner.run(broken_stream())

    @pytest.mark.parametrize("fails", [False, True])
    def test_runs_on_the_callers_thread(self, monkeypatch, fails):
        """Planning, execution and settle all run inline: a run starts
        no thread, whether it returns or raises."""
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
            batch_size=1,
        )
        if fails:
            with pytest.raises(IOError):
                planner.run(stream())
        else:
            metrics = planner.run(stream())
            assert metrics.engine.epochs_closed == len(abort_stream()) > 2
        assert started == []

    def test_gc_bounds_version_retention(self):
        scenario = bank()
        with_gc = BatchPlanner(
            initial=scenario.initial_state(), n_workers=4,
            batch_size=16,
        )
        m = with_gc.run(scenario.transaction_stream(200))
        without_gc = BatchPlanner(
            initial=scenario.initial_state(), n_workers=4,
            batch_size=16, gc_enabled=False,
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
        """``pipelined`` echoes its ``lookahead`` and runs the planner's
        run: equal native metrics and final state."""
        reports = {
            mode: Database().run(
                "abort-heavy",
                RunConfig(
                    mode=mode, workers=4, batch_size=16,
                    deterministic=deterministic, seed=7, **extra,
                ),
                txns=120,
            )
            for mode, extra in (
                ("planner", {}), ("pipelined", {"lookahead": 2}),
            )
        }
        report = reports["pipelined"]
        assert report.config.lookahead == 2
        assert report.as_dict()["config"]["lookahead"] == 2
        assert report.cc_aborts == 0
        assert report.invariant_ok
        planner = reports["planner"]
        assert report.metrics.logic_aborted > 0
        assert json.dumps(report.mode_specific) == json.dumps(
            planner.mode_specific
        )
        assert report.metrics.rebound_reads == planner.metrics.rebound_reads
        assert report.final_state == planner.final_state

    @pytest.mark.parametrize("lookahead", [1, 2, 5])
    @pytest.mark.parametrize("scenario", Database.scenarios())
    def test_pipelined_reports_what_planner_does(self, scenario, lookahead):
        """On every registered scenario, ``pipelined`` at any echoed
        ``lookahead`` reports what ``planner`` does: only the mode name
        and the echoed option differ."""
        options = dict(batch_size=16, deterministic=True, seed=7)
        planner = Database().run(
            scenario, RunConfig(mode="planner", **options), txns=120
        )
        pipelined = Database().run(
            scenario,
            RunConfig(mode="pipelined", lookahead=lookahead, **options),
            txns=120,
        )
        p_dict, q_dict = planner.as_dict(), pipelined.as_dict()
        assert q_dict.pop("mode") == "pipelined"
        assert p_dict.pop("mode") == "planner"
        q_config, p_config = q_dict.pop("config"), p_dict.pop("config")
        assert q_config == {
            **p_config, "mode": "pipelined", "lookahead": lookahead,
        }
        assert json.dumps(q_dict) == json.dumps(p_dict)
        assert pipelined.final_state == planner.final_state

    def test_pipelined_planner_is_a_bare_stub(self):
        """``benchmarks/perf`` still resolves the name and wraps ``run``
        on whichever class defines it: the stub defines none and is no
        driver."""
        from repro.planner.pipeline import PipelinedPlanner

        assert not issubclass(PipelinedPlanner, BatchPlanner)
        assert "run" not in vars(PipelinedPlanner)
