"""Reference model: the round fixpoint the single pass replaced.

:func:`repro.planner.reexec.reexecute_poisoned` re-runs each cascade
victim exactly once, in timestamp order, retiring a re-aborting victim
before the next one re-binds.  The claim is that this is the *same
function* of a batch as the PR 10 round fixpoint — per round: remove the
roots found so far, revive, re-bind and re-run **every** remaining
victim, repeat until no cascade fate is left — only cheaper.  The
fixpoint is kept here, as a list-scan model in test code only, and
Hypothesis drives both through the real driver over generated streams
mixing always-raising programs, value-dependent guards and plain
transfers: equal fates, bindings, deps and surviving version chains (so
equal removed slots), and one re-run per first-execution victim on the
fast side.

A second test forges the one input the fixpoint could not survive — a
victim whose source stays poisoned while no root accounts for it — and
demands a named error after a single re-run, not a spin.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.engine.errors import EngineError
from repro.model.batching import ReadBinding
from repro.model.schedules import T_INIT
from repro.planner import BatchPlanner, driver
from repro.planner.executor import (
    CASCADE,
    COMMITTED,
    LOGIC_ABORT,
    PlanExecutor,
)
from repro.planner.planning import plan_batch
from repro.planner.reexec import ReexecResult, reexecute_poisoned
from repro.storage.sharded import ShardedMultiversionStore
from repro.workloads.bank import transfer_program, transfer_transaction
from repro.workloads.streams import failing_program


def guarded(amount, floor):
    """Aborts unless the source balance stays above ``floor`` — whether
    it fires depends on which earlier transactions committed."""

    def program(write_index, reads):
        if reads[0] - amount < floor:
            raise RuntimeError("guard")
        return transfer_program(amount)(write_index, reads)

    return program


def fixpoint_model(
    plan, outcome, store, executor, first_position, tracer=None
):
    """The round fixpoint, verbatim but for its list scans."""
    result = ReexecResult()
    handled = []
    while True:
        victims = [p for p in plan if outcome.fates[p.txn] == CASCADE]
        if not victims:
            result.removed_ids = {id(s) for s in result.removed_slots}
            return result
        for ptxn in plan:
            if outcome.fates[ptxn.txn] == LOGIC_ABORT:
                if ptxn.txn not in handled:
                    handled.append(ptxn.txn)
                    for slot in ptxn.slots:
                        store.remove(slot)
                        result.removed_slots.append(slot)
        for ptxn in victims:
            for slot in ptxn.slots:
                store.revive(slot)
        for ptxn in victims:
            bindings = list(ptxn.bindings)
            for index, old in enumerate(bindings):
                if not any(old.source is s for s in result.removed_slots):
                    continue
                new = store.latest_before(
                    old.source.entity, old.source.position
                )
                in_batch = (
                    new.position is not None
                    and new.position >= first_position
                )
                bindings[index] = ReadBinding(
                    old.txn, old.step_index, new,
                    new.writer if in_batch else T_INIT,
                )
            ptxn.bind(tuple(bindings))
        for ptxn in victims:
            fate, blocked, steps = executor._run_one(ptxn)
            assert not blocked  # settle is single-threaded and ordered
            outcome.fates[ptxn.txn] = fate
            result.reexecuted += 1
            result.steps_executed += steps


def observed_run(implementation, stream, initial, **options):
    """Run the driver over ``implementation``; record what every settle
    saw going in (first-execution fates) and coming out."""
    batches = []

    def recording(plan, outcome, *args, **kwargs):
        first_fates = dict(outcome.fates)
        result = implementation(plan, outcome, *args, **kwargs)
        batches.append({
            "first_cascades": sum(
                fate == CASCADE for fate in first_fates.values()
            ),
            "reexecuted": result.reexecuted,
            "fates": dict(outcome.fates),
            "bindings": [
                (
                    b.step_index,
                    ptxn.transaction.steps[b.step_index].entity,
                    b.source.position,
                    b.source_txn,
                )
                for ptxn in plan
                for b in ptxn.bindings
            ],
            "deps": {ptxn.txn: ptxn.deps for ptxn in plan},
            "removed": {
                (slot.entity, slot.position)
                for slot in result.removed_slots
            },
            "dead": {
                (slot.entity, slot.position)
                for ptxn in plan
                if outcome.fates[ptxn.txn] == LOGIC_ABORT
                for slot in ptxn.slots
            },
        })
        return result

    planner = BatchPlanner(initial=initial, n_workers=2, **options)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(driver, "reexecute_poisoned", recording)
        metrics = planner.run(stream)
    return planner, metrics, batches


def chains(store):
    """Every surviving version, chain by chain — what was removed is
    exactly what is missing here."""
    return {
        entity: [
            (version.position, version.writer, version.value)
            for version in store.shard_for(entity).versions(entity)
        ]
        for entity in store.entities()
    }


@st.composite
def abort_streams(draw):
    """Transfer streams over a small hot pool, so poison chains form and
    re-run victims re-abort against their re-bound reads."""
    accounts = [f"a{i}" for i in range(draw(st.integers(3, 5)))]
    stream = []
    for k in range(draw(st.integers(1, 16))):
        source = draw(st.sampled_from(accounts))
        target = draw(st.sampled_from([a for a in accounts if a != source]))
        amount = draw(st.integers(1, 40))
        kind = draw(st.sampled_from(["ok", "ok", "boom", "guard"]))
        if kind == "boom":
            program = failing_program(f"t{k}")
        elif kind == "guard":
            program = guarded(amount, draw(st.integers(0, 120)))
        else:
            program = transfer_program(amount)
        stream.append((transfer_transaction(f"t{k}", source, target), program))
    return accounts, stream, draw(st.integers(1, 8))


@pytest.mark.parametrize("deterministic", [True, False])
@pytest.mark.parametrize("lookahead", [0, 1, 2])
@given(workload=abort_streams())
@settings(max_examples=60, deadline=None)
def test_single_pass_equals_the_round_fixpoint(
    lookahead, deterministic, workload
):
    accounts, stream, batch_size = workload
    initial = {account: 100 for account in accounts}
    options = dict(
        batch_size=batch_size, lookahead=lookahead,
        deterministic=deterministic,
    )
    model, model_metrics, model_batches = observed_run(
        fixpoint_model, stream, initial, **options
    )
    fast, fast_metrics, fast_batches = observed_run(
        reexecute_poisoned, stream, initial, **options
    )

    assert len(fast_batches) == len(model_batches)
    for ours, theirs in zip(fast_batches, model_batches):
        assert ours["first_cascades"] == theirs["first_cascades"]
        assert ours["fates"] == theirs["fates"]
        assert CASCADE not in ours["fates"].values()
        assert ours["bindings"] == theirs["bindings"]
        assert ours["deps"] == theirs["deps"]
        # Once it has a victim the pass retires every dead writer
        # itself; the model leaves its last round's re-aborters to
        # settle — same set at the end, which the chain comparison
        # below sees.
        assert theirs["removed"] <= ours["removed"]
        assert ours["removed"] == (
            ours["dead"] if ours["first_cascades"] else set()
        )
        # Once per victim — the model re-runs a chained victim per round.
        assert ours["reexecuted"] == ours["first_cascades"]
        assert theirs["reexecuted"] >= ours["reexecuted"]
    assert fast.final_state() == model.final_state()
    assert chains(fast.store) == chains(model.store)
    assert fast.store.placeholder_count() == 0
    assert model.store.placeholder_count() == 0
    assert fast_metrics.committed == model_metrics.committed
    assert fast_metrics.logic_aborted == model_metrics.logic_aborted
    assert fast_metrics.rebound_reads == model_metrics.rebound_reads
    assert fast_metrics.reexecuted == sum(
        batch["first_cascades"] for batch in fast_batches
    )


def test_model_really_iterates_where_the_pass_does_not():
    """The model is not the pass in disguise: on a chained re-abort it
    takes the extra round (3 re-runs) the pass saves (2)."""
    stream = [
        (transfer_transaction("t1", "a", "b"), failing_program("t1")),
        (transfer_transaction("t2", "b", "c"), guarded(5, 200)),
        (transfer_transaction("t3", "c", "d"), transfer_program(2)),
    ]
    initial = {k: 100 for k in "abcd"}
    options = dict(batch_size=8, deterministic=True)
    _, model_metrics, _ = observed_run(
        fixpoint_model, stream, initial, **options
    )
    _, fast_metrics, _ = observed_run(
        reexecute_poisoned, stream, initial, **options
    )
    assert (model_metrics.reexecuted, fast_metrics.reexecuted) == (3, 2)


class CountingExecutor(PlanExecutor):
    runs = 0

    def _run_one(self, ptxn):
        self.runs += 1
        return super()._run_one(ptxn)


def test_unaccounted_poison_is_a_named_error_not_a_spin():
    """A victim whose source stays poisoned while no ``LOGIC_ABORT`` or
    ``CASCADE`` transaction of the batch owns it can never be repaired
    by re-binding.  The round fixpoint re-ran it forever (``victims``
    non-empty every round, nothing retiring); the pass re-runs it once
    and raises."""
    store = ShardedMultiversionStore(2, {k: 100 for k in "abc"})
    plan = plan_batch(
        [
            (transfer_transaction("t1", "a", "b"), failing_program("t1")),
            (transfer_transaction("t2", "b", "c"), transfer_program(5)),
        ],
        store, 0, 0,
    )
    executor = CountingExecutor(store, 1, deterministic=True)
    outcome = executor.execute(plan)
    assert outcome.fates == {"t1": LOGIC_ABORT, "t2": CASCADE}
    # Forge the unaccounted poison: t1's slots stay poisoned, but the
    # fates no longer say why.
    outcome.fates["t1"] = COMMITTED
    executor.runs = 0
    with pytest.raises(EngineError) as raised:
        reexecute_poisoned(plan, outcome, store, executor, 0)
    message = str(raised.value)
    assert "'t2'" in message and "'b'" in message and "'t1'" in message
    assert "poisoned" in message
    assert executor.runs == 1
