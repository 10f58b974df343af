"""The planning phase: slot reservation and read binding."""

import pytest

from repro.engine.errors import EngineError
from repro.model.schedules import T_INIT
from repro.model.transactions import Transaction
from repro.planner.executor import (
    COMMITTED,
    LOGIC_ABORT,
    PlanExecutor,
)
from repro.planner.planning import plan_batch
from repro.runtime.group_commit import GroupCommitLog
from repro.storage.sharded import ShardedMultiversionStore


def plan(items, n_shards=4, initial=None):
    store = ShardedMultiversionStore(n_shards, initial or {})
    return plan_batch(items, store, 0, 0), store


def by_txn(batch_plan):
    return {p.txn: p for p in batch_plan}


class TestReservation:
    def test_every_write_reserves_a_slot_in_order(self):
        t1 = Transaction.build("A", ("W", "x"), ("W", "y"), ("W", "x"))
        batch, store = plan([(t1, None)])
        ptxn = by_txn(batch)["A"]
        assert len(ptxn.slots) == 3
        assert [s.entity for s in ptxn.slots] == ["x", "y", "x"]
        # Positions follow global (timestamp, step) order.
        assert [s.position for s in ptxn.slots] == [0, 1, 2]
        # Chain order of x matches: base, then the two reserved slots.
        chain = store.shard_for("x").versions("x")
        assert [v.position for v in chain] == [None, 0, 2]
        assert store.placeholder_count() == 3
        # Reserved slots are not materialized: only x/y initials count.
        assert store.version_count() == 2

    def test_positions_continue_across_transactions(self):
        t1 = Transaction.build("A", ("W", "x"))
        t2 = Transaction.build("B", ("W", "x"))
        batch, store = plan([(t1, None), (t2, None)])
        planned = by_txn(batch)
        assert planned["A"].slots[0].position == 0
        assert planned["B"].slots[0].position == 1
        assert planned["A"].timestamp < planned["B"].timestamp


class TestBinding:
    def test_base_read_binds_committed_state(self):
        t1 = Transaction.build("A", ("R", "x"))
        batch, store = plan([(t1, None)], initial={"x": 42})
        binding = by_txn(batch)["A"].bindings[0]
        assert binding.is_base
        assert binding.source_txn == T_INIT
        assert binding.source.value == 42
        assert by_txn(batch)["A"].deps == frozenset()

    def test_read_binds_newest_smaller_timestamp_write(self):
        t1 = Transaction.build("A", ("W", "x"))
        t2 = Transaction.build("B", ("W", "x"))
        t3 = Transaction.build("C", ("R", "x"))
        batch, _ = plan([(t1, None), (t2, None), (t3, None)])
        planned = by_txn(batch)
        binding = planned["C"].bindings[0]
        assert binding.source_txn == "B"
        assert binding.source is planned["B"].slots[0]
        # MVTO rule: the dependency is on B only, never A.
        assert planned["C"].deps == frozenset({"B"})

    def test_own_write_shadows_earlier_transactions(self):
        t1 = Transaction.build("A", ("W", "x"))
        t2 = Transaction.build("B", ("W", "x"), ("R", "x"))
        batch, _ = plan([(t1, None), (t2, None)])
        planned = by_txn(batch)
        binding = planned["B"].bindings[0]
        assert binding.is_own
        assert binding.source is planned["B"].slots[0]
        # An own-write read is not a commit dependency.
        assert planned["B"].deps == frozenset()

    def test_read_before_own_write_binds_predecessor(self):
        t1 = Transaction.build("A", ("W", "x"))
        t2 = Transaction.build("B", ("R", "x"), ("W", "x"))
        batch, _ = plan([(t1, None), (t2, None)])
        planned = by_txn(batch)
        assert planned["B"].bindings[0].source_txn == "A"
        assert planned["B"].deps == frozenset({"A"})

    def test_deps_are_derived_from_bindings(self):
        t1 = Transaction.build("A", ("W", "x"))
        t2 = Transaction.build("B", ("R", "x"), ("W", "y"))
        t3 = Transaction.build("C", ("R", "y"), ("R", "x"))
        batch, _ = plan([(t1, None), (t2, None), (t3, None)])
        assert {p.txn: p.deps for p in batch} == {
            "A": frozenset(), "B": {"A"}, "C": {"A", "B"},
        }
        # Derived, not stored: re-binding a transaction moves its deps.
        planned = by_txn(batch)
        planned["C"].bind(planned["C"].bindings[:1])
        assert planned["C"].deps == frozenset({"B"})

    @pytest.mark.parametrize("root", ["A", "B", "D"])
    def test_only_the_root_aborts(self, root):
        """Readers of the dead root re-bind past it during execution, so
        the root aborts alone, no ``deps`` name it afterwards, and the
        group-commit closure over the ``deps`` is the executed set."""

        def boom(write_index, reads):
            raise RuntimeError("logic abort")

        txns = [
            Transaction.build("A", ("W", "x")),
            Transaction.build("B", ("R", "x"), ("W", "y")),
            Transaction.build("C", ("R", "y")),
            Transaction.build("D", ("R", "z"), ("W", "z")),
        ]
        items = [(t, boom if t.txn == root else None) for t in txns]
        batch, store = plan(items)
        outcome = PlanExecutor(store).execute(batch, 0)
        fates = outcome.fates
        assert fates[root] == LOGIC_ABORT
        assert outcome.committed == set("ABCD") - {root}
        assert all(root not in ptxn.deps for ptxn in batch)
        votes = {t: fate == COMMITTED for t, fate in fates.items()}
        deps = {p.txn: set(p.deps) for p in batch}
        closure = GroupCommitLog(4).commit_closure(votes, deps)
        assert closure == outcome.committed


class TestPartitioning:
    def txns(self):
        entities = [f"e{k}" for k in range(12)]
        txns = []
        for i in range(8):
            a, b = entities[i % 12], entities[(i * 5 + 3) % 12]
            txns.append(
                (
                    Transaction.build(
                        f"t{i}", ("R", a), ("R", b), ("W", a), ("W", b)
                    ),
                    None,
                )
            )
        return txns

    def summarize(self, batch):
        return [
            (
                p.txn,
                p.timestamp,
                [(b.step_index, b.source_txn) for b in p.bindings],
                [(s.entity, s.position) for s in p.slots],
                sorted(p.deps, key=repr),
            )
            for p in batch
        ]

    def test_partition_count_does_not_change_the_plan(self):
        reference = None
        for n_shards in (1, 2, 4, 8):
            batch, _ = plan(self.txns(), n_shards=n_shards)
            summary = self.summarize(batch)
            if reference is None:
                reference = summary
            assert summary == reference


class TestGuards:
    def test_refuses_unsettled_placeholders(self):
        t1 = Transaction.build("A", ("W", "x"))
        store = ShardedMultiversionStore(2)
        plan_batch([(t1, None)], store, 0, 0)
        assert store.placeholder_count() == 1
        with pytest.raises(EngineError):
            plan_batch([(t1, None)], store, 1, 1)

    def test_walk_crash_raises_instead_of_a_short_plan(self):
        """A store call that raises mid-walk must fail the call, chained
        from the walk's own error, never return a plan whose later
        transactions were left unbound."""
        t1 = Transaction.build("A", ("R", "x"), ("R", "y"), ("W", "x"))
        store = ShardedMultiversionStore(4, {"x": 1, "y": 2})
        assert store.shard_for("x") is not store.shard_for("y")

        def broken(entity):
            raise KeyError("injected walk bug")

        store.shard_for("y").latest = broken
        with pytest.raises(
            EngineError, match="planning walk crashed"
        ) as raised:
            plan_batch([(t1, None)], store, 0, 0)
        assert isinstance(raised.value.__cause__, KeyError)
