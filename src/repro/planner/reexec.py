"""Deterministic re-execution of logic-abort readers (no more cascades).

The executor's poison cascade is *pessimistic*: when a program raises,
its poisoned slots kill every planned reader transitively, even though
the plan knows exactly how to save them — the timestamp order is fixed,
so each doomed reader can be re-bound past the dead writer and re-run
as if the writer had never been admitted.  That is Faleiro & Abadi's
re-execution argument (a reader re-executes because *its* input moved,
not because the batch had an abort), realized between execution and
settle in one pass over the first execution's cascade victims:

1. **Remove the roots.**  Every logic-aborted transaction's poisoned
   slots are removed from the store (recorded, so settle skips them and
   the pipelined planner repairs its lookahead seam with them).
2. **Revive the victims.**  Every cascaded reader's own slots return to
   PENDING at their original chain positions
   (:meth:`~repro.storage.mvstore.MultiversionStore.revive`), so every
   later binding to them — in this batch or an in-flight lookahead
   plan — stays exact.
3. **Re-bind past the dead.**  As a victim's turn comes, each of its
   bindings whose source slot is gone moves to
   :meth:`~repro.storage.mvstore.MultiversionStore.latest_before` the
   removed slot's position — the newest survivor below it.  The
   per-entity planning walk reserves positions in timestamp order, so
   no surviving version can sit between the removed slot and the old
   binding point: the re-bound source is exactly what planning would
   have bound had the dead writer never been admitted.  ``ptxn.deps``
   is re-derived from the new bindings, so settle's commit-closure
   fixpoint keeps agreeing with the executed fates.
4. **Re-run once, in timestamp order.**  A reader's source writer
   always has a smaller timestamp, so when a victim runs every source
   it can bind is filled or gone: no read blocks and the inputs it sees
   are final.  A re-run may itself raise (the program sees *different*
   reads now); that victim is retired on the spot, its slots removed
   like a root's before the next victim re-binds, so no slot is ever
   left poisoned in front of a later victim and nobody runs twice.

The pass touches only aborted transactions, so abort-free streams pay
nothing.
"""

# repro: deterministic-contract — equal seeds must yield byte-identical output

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.errors import EngineError
from repro.model.batching import BatchPlan, ReadBinding
from repro.model.schedules import T_INIT
from repro.obs import NULL_TRACER
from repro.planner.executor import CASCADE, LOGIC_ABORT, ExecutionOutcome


@dataclass
class ReexecResult:
    """What one re-execution pass did to a batch."""

    #: victim re-runs performed: the first execution's cascade count.
    reexecuted: int = 0
    #: slots this pass removed from the store (the roots', then each
    #: re-aborting victim's) — settle must not remove them again, and
    #: the pipelined planner feeds them to its lookahead-seam re-bind.
    removed_slots: list = field(default_factory=list)
    #: id() set of ``removed_slots`` (slots hash by identity anyway;
    #: the id-set makes the settle skip-check O(1) and explicit).
    removed_ids: set[int] = field(default_factory=set)
    #: steps the re-runs executed, for the caller's metrics (never folded
    #: into the outcome — the driver consumes outcome totals earlier).
    steps_executed: int = 0


def _retire(ptxn, store, result: ReexecResult) -> None:
    """Remove a logic-aborted transaction's slots and record them."""
    for slot in ptxn.slots:
        store.remove(slot)
        result.removed_slots.append(slot)
        result.removed_ids.add(id(slot))


def _rebind_removed(ptxn, store, removed_ids, first_position: int) -> None:
    """Move ``ptxn``'s bindings off removed slots; re-derive its deps."""
    bindings = ptxn.bindings
    rebound = False
    for index, binding in enumerate(bindings):
        source = binding.source
        if id(source) not in removed_ids:
            continue
        replacement = store.latest_before(source.entity, source.position)
        # An in-batch replacement (another planned writer's slot) is a
        # live commit dependency; anything below the batch's first
        # position is settled pre-batch state — including a previous
        # batch's filled placeholder — and classifies as a base read.
        in_batch = (
            replacement.position is not None
            and replacement.position >= first_position
        )
        bindings[index] = ReadBinding(
            binding.txn,
            binding.step_index,
            replacement,
            replacement.writer if in_batch else T_INIT,
        )
        rebound = True
    if rebound:
        ptxn.bind(bindings)


def reexecute_poisoned(
    plan: BatchPlan,
    outcome: ExecutionOutcome,
    store,
    executor,
    first_position: int,
    tracer=NULL_TRACER,
) -> ReexecResult:
    """Re-bind and re-run every cascaded reader, once, in plan order.

    Mutates ``outcome.fates`` (victims become COMMITTED or LOGIC_ABORT;
    CASCADE never survives), the victims' plan entries (bindings and
    the deps derived from them) and the store (root slots removed, victim
    slots revived then filled or removed).  Runs strictly
    single-threaded: the driver calls it after execution has joined
    and before settle, so nothing else touches the chains.
    """
    result = ReexecResult()
    fates = outcome.fates
    victims = [ptxn for ptxn in plan if fates[ptxn.txn] == CASCADE]
    if not victims:
        return result
    for ptxn in plan:
        if fates[ptxn.txn] == LOGIC_ABORT:
            _retire(ptxn, store, result)
    for ptxn in victims:
        for slot in ptxn.slots:
            store.revive(slot)
    tracing = tracer.enabled
    # ``plan`` iterates in timestamp order, so ``victims`` does too:
    # every source a victim can bind has decided by the time it runs.
    for ptxn in victims:
        _rebind_removed(ptxn, store, result.removed_ids, first_position)
        if tracing:
            tracer.instant("txn", "txn.reexec", "driver", txn=str(ptxn.txn))
        fate, _, steps = executor._run_one(ptxn)
        fates[ptxn.txn] = fate
        result.reexecuted += 1
        result.steps_executed += steps
        if fate == LOGIC_ABORT:
            _retire(ptxn, store, result)
        elif fate == CASCADE:
            dead = next(
                b.source for b in ptxn.bindings
                if not b.is_own and not b.source.materialized
            )
            raise EngineError(
                f"re-executed transaction {ptxn.txn!r} still reads a "
                f"poisoned slot of {dead.entity!r} written by "
                f"{dead.writer!r}, which no logic abort or cascade of "
                f"this batch accounts for"
            )
    return result
