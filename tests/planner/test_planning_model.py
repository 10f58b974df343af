"""Reference model: the draft-and-merge planner the one-pass planner replaced.

:func:`repro.planner.planning.plan_batch` visits a batch's steps once,
in timestamp order, keeps each entity's walk state in a dict and appends
every binding and slot where its transaction's lists end, counting the
plan's shape as it binds.  The claim is that this is the *same function*
of a batch as the planner it replaced — one ``_Access`` object per step
bucketed by entity, the entities walked in sorted order into one
``_Draft`` (two dicts keyed by step index) per transaction, a ``sorted``
merge of both dicts after the walks — only cheaper.  That planner is kept here, in test code only, as
:func:`naive_plan_batch`, and Hypothesis drives both over generated
batches (seeded with the textbook shapes: a read before the reader's own
write, an own write re-read, an entity written twice by one transaction,
two writers with a reader between, and a batch planned over the settled
slots of a previous one): equal bindings, slots, ``deps`` and tally.
The model's tally is derived from its finished bindings with the public
``is_base``/``is_own`` spelling, so the two tallies are independent
derivations; a second property runs both planners through the real
driver and demands equal plan-shape counters and equal answers.
"""

from dataclasses import dataclass, field
from typing import Any

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.engine.errors import EngineError
from repro.model.batching import BatchPlan, PlannedTransaction, ReadBinding
from repro.model.schedules import T_INIT
from repro.model.transactions import Transaction
from repro.obs import Tracer
from repro.planner import BatchPlanner, driver
from repro.planner.planning import plan_batch
from repro.storage.mvstore import MultiversionStore
from repro.workloads.streams import failing_program

from tests.helpers import clocked


@dataclass(eq=False)
class _Access:
    """One step's slot in the per-entity walk, in (timestamp, index) order."""

    ptxn: PlannedTransaction
    index: int
    is_write: bool
    position: int | None


@dataclass(eq=False)
class _Draft:
    """Mutable per-transaction scratch the partition walks fill in."""

    ptxn: PlannedTransaction
    bindings: dict[int, ReadBinding] = field(default_factory=dict)
    slots: dict[int, Any] = field(default_factory=dict)


def naive_plan_batch(items, store, first_timestamp, first_position):
    """The draft-and-merge planner, verbatim but for its containers (the
    merged bindings and slots are lists, as every consumer now expects),
    its entity walks, which run inline in sorted order over one store —
    the walk of one entity depends on nothing outside that entity — and
    the plan's tally, which it derives from its bindings once they are
    merged."""
    if store.placeholder_count():
        raise EngineError("plan_batch over unsettled placeholders")
    drafts = []
    by_entity = {}
    position = first_position
    for offset, (transaction, program) in enumerate(items):
        ptxn = PlannedTransaction(
            transaction, first_timestamp + offset, program
        )
        draft = _Draft(ptxn)
        drafts.append(draft)
        for index, step in enumerate(transaction.steps):
            if step.is_write:
                access = _Access(ptxn, index, True, position)
                position += 1
            else:
                access = _Access(ptxn, index, False, None)
            by_entity.setdefault(step.entity, []).append(access)

    draft_of = {d.ptxn.txn: d for d in drafts}
    for entity in sorted(by_entity):
        _naive_walk_entity(entity, by_entity[entity], store, draft_of)

    for draft in drafts:
        ptxn = draft.ptxn
        ptxn.bind([draft.bindings[i] for i in sorted(draft.bindings)])
        ptxn.slots = [draft.slots[i] for i in sorted(draft.slots)]
    return tallied([draft.ptxn for draft in drafts])


def tallied(planned):
    """A :class:`BatchPlan` whose shape is counted off its finished
    bindings, one property call per binding."""
    bindings = [b for ptxn in planned for b in ptxn.bindings]
    base = sum(b.is_base for b in bindings)
    own = sum(b.is_own for b in bindings)
    return BatchPlan(
        planned,
        reserved=sum(len(ptxn.slots) for ptxn in planned),
        base_reads=base,
        own_reads=own,
        dependent_reads=len(bindings) - base - own,
        commit_deps=sum(len(ptxn.deps) for ptxn in planned),
    )


def _naive_walk_entity(entity, accesses, store, draft_of):
    base = None
    last = None
    last_slot = None
    for access in accesses:
        draft = draft_of[access.ptxn.txn]
        if access.is_write:
            last_slot = store.reserve(
                entity, access.ptxn.txn, access.position
            )
            last = access
            draft.slots[access.index] = last_slot
            continue
        if last is None:
            if base is None:
                base = store.latest(entity)
            binding = ReadBinding(
                access.ptxn.txn, access.index, base, T_INIT
            )
        else:
            binding = ReadBinding(
                access.ptxn.txn, access.index, last_slot, last.ptxn.txn
            )
        draft.bindings[access.index] = binding


# -- generated batches ------------------------------------------------------

ENTITIES = ["x", "y", "z", "u", "v"]

accesses = st.lists(
    st.tuples(st.sampled_from("RW"), st.sampled_from(ENTITIES)),
    min_size=1, max_size=5,
)
#: a batch is a list of transactions, a transaction a list of accesses.
batches = st.lists(accesses, min_size=1, max_size=8)

READ_BEFORE_OWN_WRITE = [[("W", "x")], [("R", "x"), ("W", "x")]]
OWN_WRITE_REREAD = [[("W", "x")], [("W", "x"), ("R", "x")]]
WRITTEN_TWICE = [[("W", "x"), ("R", "x"), ("W", "x"), ("R", "x")], [("R", "x")]]
READER_BETWEEN_WRITERS = [
    [("W", "x")], [("R", "x")], [("W", "x")], [("R", "x"), ("R", "y")],
]


def build(batch, prefix):
    return [
        (Transaction.build(f"{prefix}{k}", *spec), None)
        for k, spec in enumerate(batch)
    ]


def shape(plan):
    """Everything a plan fixes, in plain values, and its tally."""
    tally = (
        plan.reserved, plan.base_reads, plan.own_reads,
        plan.dependent_reads, plan.commit_deps,
    )
    return tally, [
        (
            ptxn.txn,
            ptxn.timestamp,
            [
                (
                    b.txn, b.step_index, b.source.entity,
                    b.source.position, b.source.writer, b.source_txn,
                )
                for b in ptxn.bindings
            ],
            [(s.entity, s.position, s.writer) for s in ptxn.slots],
            ptxn.deps,
        )
        for ptxn in plan
    ]


def planned(planner, previous, batch):
    """What ``planner`` fixes for ``batch``, planned over the settled
    slots of ``previous`` (if any), and the placeholders it leaves."""
    store = MultiversionStore({entity: 0 for entity in ENTITIES})
    first_position = 0
    before = []
    if previous:
        # Settled, as the driver settles every batch before it plans the
        # next: the batch below binds previous' filled slots as base.
        settled = planner(build(previous, "p"), store, 0, 0)
        for ptxn in settled:
            for slot in ptxn.slots:
                store.fill(slot, slot.position)
        first_position = settled.reserved
        before = shape(settled)
    plan = planner(build(batch, "t"), store, len(previous), first_position)
    return before, shape(plan), store.placeholder_count()


#: ``(previous, batch)`` for :func:`planned`.
planning_cases = st.tuples(st.one_of(st.just([]), batches), batches)


@given(case=planning_cases)
@example(case=([], READ_BEFORE_OWN_WRITE))
@example(case=([], OWN_WRITE_REREAD))
@example(case=([], WRITTEN_TWICE))
@example(case=([], READER_BETWEEN_WRITERS))
@example(case=(READER_BETWEEN_WRITERS, READ_BEFORE_OWN_WRITE))
@example(case=(WRITTEN_TWICE, [[("R", "x"), ("R", "y")]]))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_one_pass_planner_equals_the_draft_planner(case):
    previous, batch = case
    fast = planned(plan_batch, previous, batch)
    assert fast == planned(naive_plan_batch, previous, batch)
    _, (_, transactions), placeholders = fast
    writes = sum(kind == "W" for spec in batch for kind, _ in spec)
    assert placeholders == writes
    for (_, _, bindings, slots, _), spec in zip(transactions, batch):
        # One binding per read and one slot per write, in step order.
        assert [b[1] for b in bindings] == [
            i for i, (kind, _) in enumerate(spec) if kind == "R"
        ]
        assert len(slots) == sum(kind == "W" for kind, _ in spec)



@pytest.mark.parametrize("planner", [plan_batch, naive_plan_batch])
def test_a_pending_slot_is_never_planned_over(planner):
    """Every batch settles before the next is planned, so a placeholder
    left in the store is a driver bug, refused by name."""
    store = MultiversionStore({"x": 0})
    store.reserve("x", "p0", 0)
    with pytest.raises(EngineError, match="unsettled placeholders"):
        planner(build([[("R", "x")]], "t"), store, 1, 1)

# -- through the driver: the plan-shape counters ---------------------------


def run_with(planner_function, stream, deterministic=True, **options):
    """Drain ``stream`` with ``planner_function`` as the driver's planner,
    traced on the clock a run with this ``deterministic`` gets."""
    planner = clocked(BatchPlanner(
        initial={entity: 0 for entity in ENTITIES},
        tracer=Tracer(capacity=0), **options,
    ), deterministic)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(driver, "plan_batch", planner_function)
        metrics = planner.run(stream)
    assert planner.store.placeholder_count() == 0
    return planner, metrics


@pytest.mark.parametrize("deterministic", [True, False])
@given(
    batch=st.lists(accesses, min_size=1, max_size=14),
    doomed=st.sets(st.integers(0, 13), max_size=3),
    batch_size=st.integers(1, 6),
)
@example(batch=READER_BETWEEN_WRITERS * 2, doomed={0}, batch_size=3)
@example(batch=WRITTEN_TWICE + OWN_WRITE_REREAD, doomed=set(), batch_size=2)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_driver_counts_the_same_plan_shape(
    deterministic, batch, doomed, batch_size
):
    """``doomed`` transactions raise, so their readers in the batch
    re-bind and settle removes their slots before the next plan."""
    def stream():
        return [
            (
                Transaction.build(f"t{k}", *spec),
                failing_program(f"t{k}") if k in doomed else None,
            )
            for k, spec in enumerate(batch)
        ]

    options = dict(batch_size=batch_size, deterministic=deterministic)
    model, model_metrics = run_with(naive_plan_batch, stream(), **options)
    fast, fast_metrics = run_with(plan_batch, stream(), **options)
    for name in (
        "base_reads", "own_reads", "dependent_reads", "commit_deps",
        "placeholders_reserved", "rebound_reads",
        "committed", "logic_aborted",
    ):
        assert getattr(fast_metrics, name) == getattr(model_metrics, name)
    assert fast_metrics.base_reads + fast_metrics.own_reads + (
        fast_metrics.dependent_reads
    ) == sum(kind == "R" for spec in batch for kind, _ in spec)
    assert fast.final_state() == model.final_state()
