"""The execution phase: abort-free runs, publish-at-commit, poison."""

import random

import pytest

from repro.engine.errors import EngineError
from repro.model.transactions import Transaction
from repro.planner.executor import (
    CASCADE,
    COMMITTED,
    LOGIC_ABORT,
    PlanExecutor,
    verify_settled,
)
from repro.planner.planning import plan_batch
from repro.runtime.group_commit import GroupCommitLog
from repro.storage.executor import execute_serial
from repro.storage.sharded import ShardedMultiversionStore
from repro.workloads.bank import transfer_program, transfer_transaction


def run_batch(items, n_workers=2, deterministic=True, initial=None):
    store = ShardedMultiversionStore(n_workers, initial or {})
    plan = plan_batch(items, store, 0, 0)
    executor = PlanExecutor(store, n_workers, deterministic)
    outcome = executor.execute(plan)
    verify_settled(plan, outcome)
    return plan, outcome, store


class TestHappyPath:
    def test_transfers_compute_and_publish(self):
        items = [
            (transfer_transaction("t1", "a", "b"), transfer_program(5)),
            (transfer_transaction("t2", "b", "c"), transfer_program(7)),
        ]
        _, outcome, store = run_batch(
            items, initial={"a": 100, "b": 100, "c": 100}
        )
        assert outcome.fates == {"t1": COMMITTED, "t2": COMMITTED}
        assert store.final_state() == {"a": 95, "b": 98, "c": 107}
        assert store.placeholder_count() == 0

    def test_herbrand_matches_serial_execution(self):
        """The plan realizes exactly the serial execution in timestamp
        order — the planner's serializability witness, checked on random
        transaction systems under Herbrand semantics."""
        rng = random.Random(7)
        entities = ["x", "y", "z"]
        for _ in range(25):
            txns = []
            for i in range(4):
                steps = [
                    (rng.choice("RW"), rng.choice(entities))
                    for _ in range(rng.randint(1, 4))
                ]
                txns.append(Transaction.build(f"t{i}", *steps))
            items = [(t, None) for t in txns]
            _, outcome, store = run_batch(items, n_workers=3)
            assert set(outcome.fates.values()) == {COMMITTED}
            from repro.model.schedules import Schedule
            serial = execute_serial(
                Schedule.serial([t for t in txns]),
                [t.txn for t in txns],
            )
            assert store.final_state() == serial.final_state

    def test_threaded_matches_deterministic(self):
        items = [
            (transfer_transaction(f"t{k}", f"a{k % 3}", f"a{(k + 1) % 3}"),
             transfer_program(k))
            for k in range(1, 20)
        ]
        initial = {f"a{k}": 100 for k in range(3)}
        _, _, det_store = run_batch(
            items, n_workers=4, deterministic=True, initial=initial
        )
        _, thr_outcome, thr_store = run_batch(
            items, n_workers=4, deterministic=False, initial=initial
        )
        assert set(thr_outcome.fates.values()) == {COMMITTED}
        assert det_store.final_state() == thr_store.final_state()


class TestPoison:
    def boom(self, write_index, reads):
        raise RuntimeError("logic abort")

    def test_logic_abort_poisons_and_publishes_nothing(self):
        items = [
            (transfer_transaction("t1", "a", "b"), self.boom),
        ]
        _, outcome, store = run_batch(items, initial={"a": 100, "b": 100})
        assert outcome.fates == {"t1": LOGIC_ABORT}
        # Nothing published: balances still base, slots still poisoned.
        assert store.final_state() == {"a": 100, "b": 100}
        assert store.placeholder_count() == 2

    def test_cascade_follows_planned_dependencies(self):
        items = [
            (transfer_transaction("t1", "a", "b"), self.boom),
            (transfer_transaction("t2", "b", "c"), transfer_program(3)),
            (transfer_transaction("t3", "d", "e"), transfer_program(4)),
        ]
        plan, outcome, store = run_batch(
            items,
            initial={k: 100 for k in "abcde"},
        )
        assert outcome.fates["t1"] == LOGIC_ABORT
        assert outcome.fates["t2"] == CASCADE  # read b from t1
        assert outcome.fates["t3"] == COMMITTED  # untouched by the poison
        # The realized fates are the closure of the planned deps.
        assert {p.txn: p.deps for p in plan} == {
            "t1": frozenset(), "t2": {"t1"}, "t3": frozenset(),
        }
        votes = {t: fate == COMMITTED for t, fate in outcome.fates.items()}
        assert GroupCommitLog(3).commit_closure(votes, plan.dep_map) == {"t3"}
        state = store.final_state()
        assert state["d"] == 96 and state["e"] == 104
        assert state["a"] == 100 and state["b"] == 100 and state["c"] == 100

    def test_threaded_cascade(self):
        items = [
            (transfer_transaction("t1", "a", "b"), self.boom),
            (transfer_transaction("t2", "b", "c"), transfer_program(3)),
        ]
        _, outcome, _ = run_batch(
            items, n_workers=4, deterministic=False,
            initial={"a": 100, "b": 100, "c": 100},
        )
        assert outcome.fates["t1"] == LOGIC_ABORT
        assert outcome.fates["t2"] == CASCADE

    def test_verify_settled_rejects_impossible_commit(self):
        items = [
            (transfer_transaction("t1", "a", "b"), self.boom),
            (transfer_transaction("t2", "b", "c"), transfer_program(3)),
        ]
        store = ShardedMultiversionStore(2, {k: 100 for k in "abc"})
        plan = plan_batch(items, store, 0, 0)
        outcome = PlanExecutor(store, 2, True).execute(plan)
        # Forge a fate that violates the dependency plan.
        outcome.fates["t2"] = COMMITTED
        with pytest.raises(EngineError):
            verify_settled(plan, outcome)


class TestGuards:
    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            PlanExecutor(ShardedMultiversionStore(1), 0)

    def test_threaded_worker_crash_surfaces_instead_of_hanging(self):
        """An executor bug in a threaded worker must raise after the
        join (with parked readers poisoned awake), never hang."""
        items = [
            (transfer_transaction("t1", "a", "b"), transfer_program(1)),
            (transfer_transaction("t2", "b", "c"), transfer_program(2)),
        ]
        store = ShardedMultiversionStore(2, {k: 100 for k in "abc"})
        plan = plan_batch(items, store, 0, 0)
        executor = PlanExecutor(store, 2, deterministic=False)
        original = executor._run_one

        def sabotaged(ptxn):
            if ptxn.txn == "t1":
                raise KeyError("injected executor bug")
            return original(ptxn)

        executor._run_one = sabotaged
        with pytest.raises(EngineError, match="worker crashed"):
            executor.execute(plan)
        # The crashed transaction's slots were poisoned, so a reader
        # parked on them cascaded rather than blocking forever.
        assert all(not slot.materialized for slot in plan.planned[0].slots)
