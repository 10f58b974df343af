"""The execution phase: abort-free runs, publish-at-commit, poison,
the read-time re-bind past a dead writer, and crashes — or a source
still pending at read time — that end in one :class:`EngineError`."""

import itertools
import random
import threading

import pytest

from repro.engine.errors import EngineError
from repro.model.schedules import T_INIT
from repro.model.transactions import Transaction
from repro.obs import Tracer
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
from repro.workloads.bank import transfer_program, transfer_transaction
from repro.workloads.streams import failing_program

from tests.helpers import clocked


def run_batch(items, initial=None):
    store = MultiversionStore(initial or {})
    plan = plan_batch(items, store, 0, 0)
    outcome = PlanExecutor(store).execute(plan, 0)
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
            _, outcome, store = run_batch(items)
            assert set(outcome.fates.values()) == {COMMITTED}
            from repro.model.schedules import Schedule
            serial = execute_serial(
                Schedule.serial([t for t in txns]),
                [t.txn for t in txns],
            )
            assert store.final_state() == serial.final_state


class TestTimestampOrder:
    def test_each_transaction_runs_once_whole_in_timestamp_order(self):
        """Execution is one sequential program over the plan: every
        program is called for one transaction at a time, start to end,
        each transaction exactly once, in timestamp order."""
        calls = []

        def recorded(txn, program):
            def run(write_index, reads):
                calls.append((txn, write_index))
                return program(write_index, reads)
            return run

        items = []
        for k in range(12):
            txn = f"t{k}"
            program = (
                failing_program(txn) if k % 5 == 2 else transfer_program(k)
            )
            items.append((
                transfer_transaction(txn, f"a{k % 4}", f"a{(k + 1) % 4}"),
                recorded(txn, program),
            ))
        plan, outcome, _ = run_batch(
            items, initial={f"a{k}": 100 for k in range(4)},
        )
        order = [ptxn.txn for ptxn in plan]
        assert [ptxn.timestamp for ptxn in plan] == sorted(
            ptxn.timestamp for ptxn in plan
        )
        # A run's calls are contiguous: grouping them yields each txn once.
        runs = [txn for txn, _ in itertools.groupby(t for t, _ in calls)]
        assert runs == order
        for ptxn in plan:
            indexes = [i for txn, i in calls if txn == ptxn.txn]
            if outcome.fates[ptxn.txn] == COMMITTED:
                assert indexes == list(range(len(ptxn.slots)))
            else:  # the program raised on its first write
                assert indexes == [0]

    def test_a_plan_run_out_of_timestamp_order_fails_fast(self):
        """A reader run before its in-batch writer finds the source still
        PENDING: a broken order, named at once, not waited out."""
        items = [
            (transfer_transaction("t1", "a", "x"), transfer_program(5)),
            (
                Transaction.build("t2", ("R", "x"), ("W", "y")),
                lambda write_index, reads: reads[0],
            ),
        ]
        store = MultiversionStore({"a": 100, "x": 100, "y": 0})
        plan = plan_batch(items, store, 0, 0)
        plan.planned.reverse()
        with pytest.raises(EngineError, match="still pending") as raised:
            PlanExecutor(store).execute(plan, 0)
        assert "'x'" in str(raised.value) and "'t2'" in str(raised.value)
        assert store.final_state() == {"a": 100, "x": 100, "y": 0}


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
        assert outcome.rebound_reads == 1
        # t2 was planned to read b from t1; it read the base instead, so
        # it no longer depends on the dead writer.
        t2 = plan.planned[1]
        assert t2.bindings[0].source_txn == T_INIT
        assert t2.bindings[0].source.position is None
        assert {p.txn: p.deps for p in plan} == {
            "t1": frozenset(), "t2": frozenset(), "t3": frozenset(),
        }
        votes = {t: fate == COMMITTED for t, fate in outcome.fates.items()}
        deps = {p.txn: set(p.deps) for p in plan}
        assert GroupCommitLog(3).commit_closure(votes, deps) == {"t2", "t3"}
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

    @pytest.mark.parametrize("survivor", ["in-batch", "base"])
    def test_rebind_walks_past_an_abort_chain(self, survivor):
        """t4's read of x is bound to t3's slot; t3 and t2, both blind
        writers of x, die.  One re-bind walks past both poisoned slots to
        the newest survivor: t1's published slot (a dependency on t1) or,
        without t1, the pre-batch base (no dependency)."""
        items = [
            (Transaction.build("t2", ("W", "x")), self.boom),
            (Transaction.build("t3", ("W", "x")), self.boom),
            (
                Transaction.build("t4", ("R", "x"), ("W", "y")),
                lambda write_index, reads: reads[0],
            ),
        ]
        if survivor == "in-batch":
            items.insert(0, (
                Transaction.build("t1", ("W", "x")),
                lambda write_index, reads: 7,
            ))
        plan, outcome, store = run_batch(
            items, initial={"x": 100, "y": 0},
        )
        reader = plan.planned[-1]
        assert outcome.fates["t2"] == outcome.fates["t3"] == LOGIC_ABORT
        assert outcome.fates["t4"] == COMMITTED
        assert outcome.rebound_reads == 1
        [binding] = reader.bindings
        if survivor == "in-batch":
            assert binding.source_txn == "t1"
            assert reader.deps == {"t1"}
            assert store.final_state()["y"] == 7
        else:
            assert binding.source_txn == T_INIT
            assert binding.source.position is None
            assert reader.deps == frozenset()
            assert store.final_state()["y"] == 100

    def test_rebind_past_a_blind_writer_lands_on_the_published_slot(self):
        """t3 reads x from t2, a blind writer that dies at once; the next
        version down is t1's slot, which t1 — earlier in timestamp order
        — has already published, so t3 commits on it and depends on t1."""
        items = [
            (transfer_transaction("t1", "a", "x"), transfer_program(5)),
            (Transaction.build("t2", ("W", "x")), self.boom),
            (
                Transaction.build("t3", ("R", "x"), ("W", "y")),
                lambda write_index, reads: reads[0],
            ),
        ]
        plan, outcome, store = run_batch(
            items, initial={"a": 100, "x": 100, "y": 0},
        )
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
        store = MultiversionStore({k: 100 for k in "abc"})
        plan = plan_batch(items, store, 0, 0)
        outcome = PlanExecutor(store).execute(plan, 0)
        assert outcome.fates == {"t1": LOGIC_ABORT, "t2": COMMITTED}
        # Forge a dependency the executed fates violate: t2 re-bound past
        # the dead t1, so only a forged plan can still depend on it.
        plan.planned[1].deps = frozenset({"t1"})
        with pytest.raises(EngineError):
            verify_settled(plan, outcome)


class TestPendingSource:
    @pytest.mark.parametrize("reached", ["as-planned", "by-rebind"])
    def test_pending_source_is_a_named_error_not_a_wait(self, reached):
        """A slot reserved for a writer outside the plan stays PENDING:
        in timestamp order no source can, so reading it — as planned, or
        by a re-bind past a dead writer above it — ends the batch in an
        :class:`EngineError` naming the entity and the reader, at once,
        never a hang."""
        store = MultiversionStore({"x": 100, "y": 0})
        ghost = (Transaction.build("ghost", ("W", "x")), None)
        reader = (
            Transaction.build("t1", ("R", "x"), ("W", "y")),
            lambda write_index, reads: reads[0],
        )
        items = [ghost, reader]
        if reached == "by-rebind":
            items.insert(
                1, (Transaction.build("t0", ("W", "x")), failing_program("t0"))
            )
        plan = plan_batch(items, store, 0, 0)
        # The ghost's slot stays reserved, but nobody runs its writer.
        del plan.planned[0]
        raised: list[BaseException] = []

        def run() -> None:
            try:
                PlanExecutor(store).execute(plan, 0)
            except BaseException as error:  # noqa: BLE001 — inspected below
                raised.append(error)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(5)
        assert not thread.is_alive(), "the read blocked"
        assert raised, "the pending source was served"
        [error] = raised
        assert isinstance(error, EngineError)
        assert "'x'" in str(error) and "'t1'" in str(error)
        assert "still pending" in str(error)
        # Nothing was published: t1 never reached its commit point.
        assert store.final_state()["y"] == 0


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
    :class:`EngineError` chained from the cause — on either trace clock —
    never a raw ``ValueError`` (a usage error to the CLI) and never a
    hang."""

    @pytest.mark.parametrize("deterministic", [True, False])
    @pytest.mark.parametrize(
        "stage, method, message",
        [
            ("planning", "reserve", "planning walk crashed"),
            ("execution", "fill", "plan execution crashed"),
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
        planner = clocked(BatchPlanner(
            initial={f"a{k}": 100 for k in range(4)}, n_workers=2,
            batch_size=8, tracer=Tracer(capacity=0),
        ), deterministic)
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
