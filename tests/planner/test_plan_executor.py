"""The execution phase: abort-free runs, publish-at-commit, poison,
the read-time re-bind past a dead writer, and crashes that end in one
:class:`EngineError` whichever way the work was spread."""

import itertools
import random
import threading

import pytest

from repro.engine.errors import EngineError
from repro.model.schedules import T_INIT
from repro.model.transactions import Transaction
from repro.planner import BatchPlanner
from repro.planner.executor import (
    COMMITTED,
    LOGIC_ABORT,
    PlanExecutor,
    verify_settled,
)
from repro.planner.planning import plan_batch
from repro.runtime.group_commit import GroupCommitLog
from repro.storage.executor import execute_serial
from repro.storage.mvstore import MultiversionStore
from repro.storage.sharded import ShardedMultiversionStore
from repro.workloads.bank import transfer_program, transfer_transaction


def run_batch(items, n_workers=2, deterministic=True, initial=None):
    store = ShardedMultiversionStore(n_workers, initial or {})
    plan = plan_batch(items, store, 0, 0)
    executor = PlanExecutor(store, n_workers, deterministic)
    outcome = executor.execute(plan, 0)
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

    def test_reader_rebinds_past_a_logic_abort(self):
        items = [
            (transfer_transaction("t1", "a", "b"), self.boom),
            (transfer_transaction("t2", "b", "c"), transfer_program(3)),
            (transfer_transaction("t3", "d", "e"), transfer_program(4)),
        ]
        plan, outcome, store = run_batch(
            items,
            initial={k: 100 for k in "abcde"},
        )
        assert outcome.fates == {
            "t1": LOGIC_ABORT, "t2": COMMITTED, "t3": COMMITTED,
        }
        # t2 was planned to read b from t1; it read the base instead, so
        # it no longer depends on the dead writer.
        t2 = plan.planned[1]
        assert t2.bindings[0].source_txn == T_INIT
        assert t2.bindings[0].source.position is None
        assert {p.txn: p.deps for p in plan} == {
            "t1": frozenset(), "t2": frozenset(), "t3": frozenset(),
        }
        votes = {t: fate == COMMITTED for t, fate in outcome.fates.items()}
        assert GroupCommitLog(3).commit_closure(votes, plan.dep_map) == {
            "t2", "t3",
        }
        state = store.final_state()
        assert state["b"] == 97 and state["c"] == 103
        assert state["d"] == 96 and state["e"] == 104
        assert state["a"] == 100

    def test_rebind_lands_on_an_earlier_writer_as_a_dependency(self):
        items = [
            (transfer_transaction("t0", "a", "b"), transfer_program(10)),
            (transfer_transaction("t1", "b", "c"), self.boom),
            (transfer_transaction("t2", "b", "d"), transfer_program(3)),
        ]
        plan, outcome, store = run_batch(
            items, initial={k: 100 for k in "abcd"},
        )
        assert outcome.fates["t2"] == COMMITTED
        binding = plan.planned[2].bindings[0]
        assert binding.source_txn == "t0"
        assert plan.planned[2].deps == {"t0"}
        assert store.final_state()["b"] == 107

    def test_threaded_rebind(self):
        items = [
            (transfer_transaction("t1", "a", "b"), self.boom),
            (transfer_transaction("t2", "b", "c"), transfer_program(3)),
        ]
        _, outcome, store = run_batch(
            items, n_workers=4, deterministic=False,
            initial={"a": 100, "b": 100, "c": 100},
        )
        assert outcome.fates == {"t1": LOGIC_ABORT, "t2": COMMITTED}
        assert store.final_state()["c"] == 103

    def test_threaded_rebind_waits_on_a_pending_replacement(self):
        """t3 reads x from t2, a blind writer that dies at once; the next
        version down is t1's slot, still pending while t1's program
        blocks, so the re-bound read must park until t1 publishes."""
        release = threading.Event()

        def slow(write_index, reads):
            assert release.wait(10)
            return transfer_program(5)(write_index, reads)

        items = [
            (transfer_transaction("t1", "a", "x"), slow),
            (Transaction.build("t2", ("W", "x")), self.boom),
            (
                Transaction.build("t3", ("R", "x"), ("W", "y")),
                lambda write_index, reads: reads[0],
            ),
        ]
        timer = threading.Timer(0.2, release.set)
        timer.start()
        plan, outcome, store = run_batch(
            items, n_workers=3, deterministic=False,
            initial={"a": 100, "x": 100, "y": 0},
        )
        timer.join()
        assert outcome.fates == {
            "t1": COMMITTED, "t2": LOGIC_ABORT, "t3": COMMITTED,
        }
        assert plan.planned[2].deps == {"t1"}
        assert store.final_state()["y"] == 105

    def test_verify_settled_rejects_impossible_commit(self):
        items = [
            (transfer_transaction("t1", "a", "b"), self.boom),
            (transfer_transaction("t2", "b", "c"), transfer_program(3)),
        ]
        store = ShardedMultiversionStore(2, {k: 100 for k in "abc"})
        plan = plan_batch(items, store, 0, 0)
        outcome = PlanExecutor(store, 2, True).execute(plan, 0)
        assert outcome.fates == {"t1": LOGIC_ABORT, "t2": COMMITTED}
        # Forge a dependency the executed fates violate: t2 re-bound past
        # the dead t1, so only a forged plan can still depend on it.
        plan.planned[1].deps = frozenset({"t1"})
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

        def sabotaged(ptxn, first_position):
            if ptxn.txn == "t1":
                raise KeyError("injected executor bug")
            return original(ptxn, first_position)

        executor._run_one = sabotaged
        with pytest.raises(EngineError, match="worker crashed"):
            executor.execute(plan, 0)
        # The crashed transaction's slots were poisoned, so a reader
        # parked on them re-bound past them rather than blocking forever.
        assert all(not slot.materialized for slot in plan.planned[0].slots)


def fails_on_call(method, n):
    """``method`` raising ``ValueError`` on its ``n``-th call."""
    calls = itertools.count(1)

    def faulty(self, *args, **kwargs):
        if next(calls) == n:
            raise ValueError(f"{method.__name__} crashed")
        return method(self, *args, **kwargs)

    return faulty


class TestCrashEndsInEngineError:
    """A store fault inside planning or execution ends the run in one
    :class:`EngineError` chained from the cause — inline (deterministic)
    or threaded — never a raw ``ValueError`` (a usage error to the CLI)
    and never a hang."""

    @pytest.mark.parametrize("deterministic", [True, False])
    @pytest.mark.parametrize(
        "stage, method, message",
        [
            ("planning", "reserve", "partition planning thread crashed"),
            ("execution", "fill", "plan execution worker crashed"),
        ],
    )
    def test_crash(self, monkeypatch, stage, method, message, deterministic):
        monkeypatch.setattr(
            MultiversionStore, method,
            fails_on_call(getattr(MultiversionStore, method), 5),
        )
        stream = [
            (transfer_transaction(f"t{k}", f"a{k % 4}", f"a{(k + 1) % 4}"),
             transfer_program(1))
            for k in range(16)
        ]
        planner = BatchPlanner(
            initial={f"a{k}": 100 for k in range(4)}, n_workers=2,
            batch_size=8, deterministic=deterministic,
        )
        raised: list[BaseException] = []

        def run() -> None:
            try:
                planner.run(stream)
            except BaseException as error:  # noqa: BLE001 — inspected below
                raised.append(error)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(5)
        assert not thread.is_alive(), "the run hung"
        [error] = raised
        assert isinstance(error, EngineError)
        assert str(error) == f"{message}: ValueError('{method} crashed')"
        assert isinstance(error.__cause__, ValueError)
