"""Reference model: the two-pass design the read-time re-bind replaced.

A reader whose source writer logic-aborted used to poison its own slots
and end with a third fate, ``CASCADE``; at settle one pass removed the
aborted roots' slots, revived every victim's poisoned slots to PENDING,
re-bound the victims' reads off the removed slots and ran each victim a
second time, in timestamp order, retiring a victim that aborted again
before the next one re-bound.  Now the reader re-binds on the spot
(:meth:`repro.planner.executor.PlanExecutor._run_one`) and runs once.

The two-pass design is kept here, in test code only — an executor whose
``_run_one`` poisons and returns the cascade fate, the settle pass, and
the ``revive`` it needed — and Hypothesis drives both through the real
driver over generated streams mixing always-raising programs,
value-dependent guards and plain transfers: equal fates, equal final
bindings (source position and ``source_txn``), equal ``deps``, equal
surviving version chains and an equal final state.

One count pin replaces "re-runs == the cascade's count": on E17's
abort-heavy stream every transaction runs exactly once.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.bench import get_suite, run_case
from repro.model.batching import ReadBinding
from repro.model.schedules import T_INIT
from repro.planner import BatchPlanner
from repro.planner.executor import COMMITTED, LOGIC_ABORT, PlanExecutor
from repro.storage.executor import write_value
from repro.storage.mvstore import PlaceholderState
from repro.workloads.bank import transfer_program, transfer_transaction
from repro.workloads.streams import failing_program

CASCADE = "cascade"


def guarded(amount, floor):
    """Aborts unless the source balance stays above ``floor`` — whether
    it fires depends on which earlier transactions committed."""

    def program(write_index, reads):
        if reads[0] - amount < floor:
            raise RuntimeError("guard")
        return transfer_program(amount)(write_index, reads)

    return program


def revive(slot):
    """The deleted ``MultiversionStore.revive``: POISONED back to PENDING
    (both count as unmaterialized, so no store counter moves)."""
    assert slot.state is PlaceholderState.POISONED
    # Clear first: no waiter may find PENDING and the poison's event set.
    if slot._event is not None:
        slot._event.clear()
    object.__setattr__(slot, "state", PlaceholderState.PENDING)


class CascadeExecutor(PlanExecutor):
    """The replaced ``_run_one``: a poisoned source poisons the reader."""

    def _run_one(self, ptxn, first_position):
        reads, own_values, computed = [], {}, []
        bindings, slots = iter(ptxn.bindings), iter(ptxn.slots)
        steps = 0
        for step in ptxn.transaction.steps:
            steps += 1
            if step.is_read:
                binding = next(bindings)
                source = binding.source
                if binding.source_txn == ptxn.txn:
                    reads.append(own_values[id(source)])
                    continue
                if source.is_placeholder:
                    source.wait()
                    if source.state is PlaceholderState.POISONED:
                        self._poison_all(ptxn)
                        return CASCADE, 0, steps
                reads.append(source.value)
                continue
            slot = next(slots)
            try:
                value = write_value(
                    ptxn.program, ptxn.txn, len(computed), reads
                )
            except Exception:  # noqa: BLE001 — a raise IS the abort
                self._poison_all(ptxn)
                return LOGIC_ABORT, 0, steps
            own_values[id(slot)] = value
            computed.append((slot, value))
        for slot, value in computed:
            with self.store.lock_of(slot.entity):
                self.store.fill(slot, value)
        return COMMITTED, 0, steps


def settle_pass(plan, fates, store, executor, first_position):
    """The replaced settle pass; returns the ids of the slots it removed."""
    removed = set()

    def retire(ptxn):
        for slot in ptxn.slots:
            store.remove(slot)
            removed.add(id(slot))

    victims = [ptxn for ptxn in plan if fates[ptxn.txn] == CASCADE]
    if not victims:
        return removed
    for ptxn in plan:
        if fates[ptxn.txn] == LOGIC_ABORT:
            retire(ptxn)
    for ptxn in victims:
        for slot in ptxn.slots:
            revive(slot)
    for ptxn in victims:
        bindings = ptxn.bindings
        for index, old in enumerate(bindings):
            if id(old.source) not in removed:
                continue
            new = store.latest_before(old.source.entity, old.source.position)
            in_batch = (
                new.position is not None and new.position >= first_position
            )
            bindings[index] = ReadBinding(
                old.txn, old.step_index, new,
                new.writer if in_batch else T_INIT,
            )
        ptxn.bind(bindings)
        fate, _, _ = executor._run_one(ptxn, first_position)
        assert fate != CASCADE
        fates[ptxn.txn] = fate
        if fate == LOGIC_ABORT:
            retire(ptxn)
    return removed


class RecordingPlanner(BatchPlanner):
    """Records what every settled batch decided."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batches = []

    def _settle(self, head, plans):
        super()._settle(head, plans)
        self.batches.append({
            "fates": dict(head.outcome.fates),
            "bindings": [
                (
                    b.step_index,
                    ptxn.transaction.steps[b.step_index].entity,
                    b.source.position,
                    b.source_txn,
                )
                for ptxn in head.plan
                for b in ptxn.bindings
            ],
            "deps": {ptxn.txn: ptxn.deps for ptxn in head.plan},
        })


class TwoPassPlanner(RecordingPlanner):
    """The driver over the replaced design: cascade, then settle pass."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.executor = CascadeExecutor(
            self.store, self.executor.n_workers, self.deterministic
        )

    def _settle(self, head, plans):
        # Settle removes every logic abort's slots; the pass already
        # removed those it retired.
        gone = settle_pass(
            head.plan, head.outcome.fates, self.store, self.executor,
            head.first_position,
        )
        remove = self.store.remove
        self.store.remove = lambda v: None if id(v) in gone else remove(v)
        try:
            super()._settle(head, plans)
        finally:
            del self.store.remove


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
    re-bound readers abort in turn against their new reads."""
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
def test_rebind_equals_the_two_pass_design(lookahead, deterministic, workload):
    accounts, stream, batch_size = workload
    options = dict(
        initial={account: 100 for account in accounts}, n_workers=2,
        batch_size=batch_size, lookahead=lookahead,
        deterministic=deterministic,
    )
    model = TwoPassPlanner(**options)
    model_metrics = model.run(stream)
    fast = RecordingPlanner(**options)
    fast_metrics = fast.run(stream)

    assert fast.batches == model.batches
    for batch in fast.batches:
        assert set(batch["fates"].values()) <= {COMMITTED, LOGIC_ABORT}
    assert fast.final_state() == model.final_state()
    assert chains(fast.store) == chains(model.store)
    assert fast.store.placeholder_count() == 0
    assert model.store.placeholder_count() == 0
    assert fast_metrics.committed == model_metrics.committed
    assert fast_metrics.logic_aborted == model_metrics.logic_aborted
    assert fast_metrics.rebound_reads == model_metrics.rebound_reads


def test_model_really_takes_two_passes():
    """The model is not the re-bind in disguise: on a chained abort its
    first execution cascades both readers, and the pass re-runs them."""
    stream = [
        (transfer_transaction("t1", "a", "b"), failing_program("t1")),
        (transfer_transaction("t2", "b", "c"), guarded(5, 200)),
        (transfer_transaction("t3", "c", "d"), transfer_program(2)),
    ]
    options = dict(
        initial={k: 100 for k in "abcd"}, n_workers=2, batch_size=8,
        deterministic=True,
    )
    model = TwoPassPlanner(**options)
    first = {}
    execute = model.executor.execute

    def recording(plan, first_position):
        outcome = execute(plan, first_position)
        first.update(outcome.fates)
        return outcome

    model.executor.execute = recording
    model.run(stream)
    assert first == {"t1": LOGIC_ABORT, "t2": CASCADE, "t3": CASCADE}
    assert model.batches[0]["fates"] == {
        "t1": LOGIC_ABORT, "t2": LOGIC_ABORT, "t3": COMMITTED,
    }


def test_each_transaction_runs_once(monkeypatch):
    """On E17's abort-heavy stream ``_run_one`` runs exactly once per
    submitted transaction, and no step runs twice."""
    ran = []
    run_one = PlanExecutor._run_one

    def counting(self, ptxn, first_position):
        ran.append(ptxn.transaction)
        return run_one(self, ptxn, first_position)

    monkeypatch.setattr(PlanExecutor, "_run_one", counting)
    report = run_case(get_suite("e17").case("abort-heavy/planner"))
    metrics = report.report.metrics
    assert metrics.logic_aborted > 0
    assert len(ran) == len({t.txn for t in ran}) == metrics.submitted
    assert metrics.engine.steps_submitted <= sum(len(t.steps) for t in ran)
