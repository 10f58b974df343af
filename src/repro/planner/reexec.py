"""Deterministic re-execution of logic-abort readers (no more cascades).

The executor's poison cascade is *pessimistic*: when a program raises,
its poisoned slots kill every planned reader transitively, even though
the plan knows exactly how to save them — the timestamp order is fixed,
so each doomed reader can be re-bound past the dead writer and re-run
as if the writer had never been admitted.  That is Faleiro & Abadi's
re-execution argument, and this module realizes it between execution
and settle:

1. **Remove the roots.**  Every logic-aborted transaction's poisoned
   slots are removed from the store (recorded, so settle skips them and
   the pipelined planner repairs its lookahead seam with them).
2. **Revive the victims.**  Every cascaded reader's own slots return to
   PENDING at their original chain positions
   (:meth:`~repro.storage.mvstore.MultiversionStore.revive`), so every
   later binding to them — in this batch or an in-flight lookahead
   plan — stays exact.
3. **Re-bind past the dead.**  Each victim binding whose source slot
   was just removed moves to
   :meth:`~repro.storage.mvstore.MultiversionStore.latest_before` the
   removed slot's position — the newest survivor below it.  The
   per-entity planning walk reserves positions in timestamp order, so
   no surviving version can sit between the removed slot and the old
   binding point: the re-bound source is exactly what planning would
   have bound had the root never been admitted.  ``ptxn.deps`` is
   re-derived from the new bindings, so settle's commit-closure
   fixpoint keeps agreeing with the executed fates.
4. **Re-run in timestamp order.**  Victims re-execute inline; a
   reader's source writer always has a smaller timestamp, so it has
   already decided — no read ever blocks.  A re-run may itself raise
   (the program sees *different* reads now), which makes it a new root:
   the loop repeats until no cascaded transaction remains.  Each
   continuing round permanently retires at least one transaction to
   logic-abort, so the fixpoint terminates within the batch size.

The pass runs at most once per batch member per round and touches only
aborted transactions, so abort-free streams pay nothing.
"""

# repro: deterministic-contract — equal seeds must yield byte-identical output

from __future__ import annotations

from dataclasses import dataclass, field

from repro.model.batching import BatchPlan, ReadBinding
from repro.model.schedules import T_INIT
from repro.obs import NULL_TRACER
from repro.planner.executor import CASCADE, LOGIC_ABORT, ExecutionOutcome


@dataclass
class ReexecResult:
    """What one re-execution fixpoint did to a batch."""

    #: victim re-runs performed (a chained victim counts once per round).
    reexecuted: int = 0
    #: fixpoint rounds taken (0 = nothing cascaded).
    rounds: int = 0
    #: root slots this pass removed from the store, in removal order —
    #: settle must not remove them again, and the pipelined planner
    #: feeds them to its lookahead-seam re-bind.
    removed_slots: list = field(default_factory=list)
    #: id() set of ``removed_slots`` (slots hash by identity anyway;
    #: the id-set makes the settle skip-check O(1) and explicit).
    removed_ids: set[int] = field(default_factory=set)
    #: re-run accounting deltas, for the caller's metrics (never folded
    #: into the outcome — the driver consumes outcome totals earlier).
    blocked_reads: int = 0
    steps_executed: int = 0


def _rebind_removed(ptxn, store, removed_ids, first_position: int) -> None:
    """Move ``ptxn``'s bindings off removed slots; re-derive its deps."""
    changed = False
    bindings = list(ptxn.bindings)
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
        changed = True
    if changed:
        ptxn.bind(tuple(bindings))


def reexecute_poisoned(
    plan: BatchPlan,
    outcome: ExecutionOutcome,
    store,
    executor,
    first_position: int,
    tracer=NULL_TRACER,
) -> ReexecResult:
    """Re-bind and re-run every cascaded reader until a fixpoint.

    Mutates ``outcome.fates`` (victims become COMMITTED or LOGIC_ABORT;
    CASCADE never survives), the victims' plan entries (bindings and
    the deps derived from them) and the store (root slots removed, victim
    slots revived then filled or re-poisoned).  Runs strictly
    single-threaded: the driver calls it after execution has joined
    and before settle, so nothing else touches the chains.
    """
    result = ReexecResult()
    tracing = tracer.enabled
    handled: set = set()
    while True:
        victims = [
            ptxn for ptxn in plan if outcome.fates[ptxn.txn] == CASCADE
        ]
        if not victims:
            return result
        result.rounds += 1
        for ptxn in plan:
            if outcome.fates[ptxn.txn] != LOGIC_ABORT:
                continue
            if ptxn.txn in handled:
                continue
            handled.add(ptxn.txn)
            for slot in ptxn.slots:
                store.remove(slot)
                result.removed_slots.append(slot)
                result.removed_ids.add(id(slot))
        for ptxn in victims:
            for slot in ptxn.slots:
                store.revive(slot)
        for ptxn in victims:
            _rebind_removed(ptxn, store, result.removed_ids, first_position)
        # ``plan`` iterates in timestamp order, so ``victims`` does too:
        # every source a victim reads has decided by the time it runs.
        for ptxn in victims:
            if tracing:
                tracer.instant(
                    "txn", "txn.reexec", "driver",
                    txn=str(ptxn.txn), round=result.rounds,
                )
            fate, blocked, steps = executor._run_one(ptxn)
            outcome.fates[ptxn.txn] = fate
            result.reexecuted += 1
            result.blocked_reads += blocked
            result.steps_executed += steps
