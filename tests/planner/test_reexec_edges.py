"""Re-binding edge cases: where ``latest_before`` must land.

Directed regressions for the corners of the read-time re-bind
(:meth:`repro.planner.executor.PlanExecutor._rebind`): a poisoned chain
*head* (nothing earlier in the batch — the replacement is the pre-batch
base), chained poisons (a re-bound reader that aborts, poisoning the
next), a poisoned source whose replacement is a *previous batch's*
committed version, and GC (re-binding must never address a pruned
version).  Every planned
transaction runs exactly once, so ``steps_submitted`` never exceeds the
stream's steps.
"""

import pytest

from repro.planner import BatchPlanner
from repro.workloads.bank import transfer_program, transfer_transaction
from repro.workloads.streams import AbortHeavyScenario


def boom(write_index, reads):
    raise RuntimeError("logic abort")


def guarded(amount, floor):
    """Aborts unless the source balance stays above ``floor``."""

    def program(write_index, reads):
        if reads[0] - amount < floor:
            raise RuntimeError("guard")
        return transfer_program(amount)(write_index, reads)

    return program


def run_planner(stream, *, initial, batch_size=8, **options):
    planner = BatchPlanner(
        initial=initial, n_workers=2, batch_size=batch_size,
        **options,
    )
    metrics = planner.run(stream)
    assert metrics.engine.steps_submitted <= sum(
        len(txn.steps) for txn, _ in stream
    )
    return planner, metrics


class TestChainHeadPoison:
    def test_reader_falls_back_to_pre_batch_base(self):
        # t1 is the chain head for a and b — nothing earlier in the
        # batch, so t2's re-bound read must land on the initial base.
        stream = [
            (transfer_transaction("t1", "a", "b"), boom),
            (transfer_transaction("t2", "b", "c"), transfer_program(5)),
        ]
        planner, metrics = run_planner(
            stream, initial={k: 100 for k in "abc"}
        )
        assert metrics.committed == 1
        assert metrics.logic_aborted == 1
        state = planner.final_state()
        # t2 read b = 100 (the base), not t1's poisoned write.
        assert state["b"] == 95 and state["c"] == 105
        assert state["a"] == 100
        assert planner.store.placeholder_count() == 0


class TestChainedPoisons:
    def test_reexecuted_reader_that_reaborts_poisons_the_next(self):
        # t1 aborts; t2 re-binds to base b=100 and aborts too (its guard
        # needs 200), so t3 — bound to t2's slot — re-binds past it to
        # the base and commits.  Each runs once.
        stream = [
            (transfer_transaction("t1", "a", "b"), boom),
            (transfer_transaction("t2", "b", "c"), guarded(5, 200)),
            (transfer_transaction("t3", "c", "d"), transfer_program(2)),
        ]
        planner, metrics = run_planner(
            stream, initial={k: 100 for k in "abcd"}
        )
        assert metrics.committed == 1
        assert metrics.logic_aborted == 2
        state = planner.final_state()
        assert state == {"a": 100, "b": 100, "c": 98, "d": 102}
        assert planner.store.placeholder_count() == 0

    def test_guard_that_passes_after_rebind_commits(self):
        # The mirror image: t2's guard *fails* against t1's planned
        # write but *passes* against the base it is re-bound to.
        stream = [
            # t1 would drain b to 0; its own abort saves t2.
            (transfer_transaction("t1", "b", "a"), boom),
            (transfer_transaction("t2", "b", "c"), guarded(5, 90)),
        ]
        planner, metrics = run_planner(
            stream, initial={k: 100 for k in "abc"}
        )
        assert metrics.committed == 1
        assert planner.final_state()["c"] == 105


class TestCrossBatchRebind:
    def test_replacement_is_previous_batch_committed_version(self):
        # Batch 1 commits t1 (c -> b) leaving c = 95.  In batch 2, t2
        # poisons c and t3 reads it: the re-bound source must be t1's
        # *committed batch-1 version* (95), not the initial 100.
        stream = [
            (transfer_transaction("t1", "c", "b"), transfer_program(5)),
            (transfer_transaction("tf", "e", "f"), transfer_program(1)),
            (transfer_transaction("t2", "b", "c"), boom),
            (transfer_transaction("t3", "c", "d"), transfer_program(2)),
        ]
        initial = {k: 100 for k in "abcdef"}
        planner, metrics = run_planner(
            stream, initial=initial, batch_size=2,
        )
        assert metrics.committed == 3
        assert metrics.logic_aborted == 1
        # Untouched entities keep their base; overlay for a total sum.
        state = {**initial, **planner.final_state()}
        assert state["c"] == 93  # 95 from batch 1, minus t3's 2
        assert state["d"] == 102
        assert sum(state.values()) == 600

    def test_multi_batch_conservation_under_pressure(self):
        scenario = AbortHeavyScenario(
            n_shards=2, accounts_per_shard=4, abort_fraction=0.3,
            cross_fraction=0.3, seed=9,
        )
        planner = BatchPlanner(
            initial=scenario.initial_state(), n_workers=2,
            batch_size=8,
        )
        metrics = planner.run(scenario.transaction_stream(80))
        assert metrics.logic_aborted > 0
        assert metrics.cc_aborts == 0
        assert scenario.invariant_holds(planner.final_state())
        assert planner.store.placeholder_count() == 0


class TestRebindUnderGC:
    """GC prunes behind the next batch's first position, and a re-bind
    walks down from a slot of the executing batch, so ``latest_before``
    never lands on a pruned version: the run equals the unpruned one."""

    def test_gc_on_off_realize_the_same_run(self):
        runs = {}
        for gc_enabled in (True, False):
            scenario = AbortHeavyScenario(
                n_shards=2, accounts_per_shard=4, abort_fraction=0.3,
                cross_fraction=0.3, seed=13,
            )
            planner = BatchPlanner(
                initial=scenario.initial_state(), n_workers=2,
                batch_size=4, gc_enabled=gc_enabled,
            )
            metrics = planner.run(scenario.transaction_stream(100))
            assert metrics.logic_aborted > 0
            assert metrics.rebound_reads > 0
            assert scenario.invariant_holds(planner.final_state())
            assert (metrics.engine.gc.versions_pruned > 0) == gc_enabled
            runs[gc_enabled] = (
                metrics.committed, metrics.rebound_reads,
                planner.final_state(),
            )
        assert runs[True] == runs[False]
