"""The execution phase: run a planned batch with zero CC aborts.

Every read was bound to its exact source version at plan time, so
execution never consults a scheduler and can never be aborted by
concurrency control.  Transactions run inline, one at a time, in
timestamp order — the order the plan serializes them in.  A read's
source writer always has a smaller timestamp (or is the reader itself),
so by the time the reader runs that writer has already published or
poisoned: the whole batch is a sequential program and no read ever
waits.  A read takes its source's value first: a committed version
and a filled slot carry theirs, so only the unwritten sentinel leads on
to the three other cases — the reader's own pending write (served from
its local values), a poisoned slot (re-bind, below), or a slot still
PENDING, which in timestamp order is an executor bug: the batch ends in
an :class:`EngineError` naming the entity and the reader.

Transactions publish at commit: write values are computed locally and
all of a transaction's slots are filled together after its last step.
A transaction whose program raises (a *logic* abort — the one abort
class planning cannot remove) publishes nothing: it poisons its
reserved slots.  A reader that finds its source poisoned re-binds on
the spot to the next version down the chain — the version the MVTO
rule serves had the dead writer never been admitted — and runs on.
Nothing needs undoing: a slot goes PENDING -> FILLED or PENDING ->
POISONED, never FILLED -> POISONED, so the reader has consumed nothing
of the dead writer's and its own slots are still pending.  Each planned
transaction runs exactly once; only a logic abort poisons.  A read
planned ahead against an earlier batch's slot whose writer aborted
re-binds the same way: settle removed the slot from the chain, but the
slot stays POISONED.

A crash inside ``_run_one`` — an executor or store bug, not a workload
condition — ends the batch in one :class:`EngineError` chained from the
cause.
"""

# repro: deterministic-contract — equal seeds must yield byte-identical output

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.errors import EngineError
from repro.model.batching import BatchPlan, PlannedTransaction, ReadBinding
from repro.model.schedules import T_INIT
from repro.model.steps import Op, TxnId
from repro.storage.executor import write_value
from repro.storage.mvstore import UNWRITTEN, PlaceholderState
from repro.storage.sharded import ShardedMultiversionStore

#: ``_run_one`` tests these by identity instead of calling the
#: ``is_read`` / ``decided`` properties once per step of the batch.
_READ = Op.READ
_PENDING = PlaceholderState.PENDING
_POISONED = PlaceholderState.POISONED

#: per-transaction outcome tags.
COMMITTED = "committed"
LOGIC_ABORT = "logic-abort"


@dataclass
class ExecutionOutcome:
    """What one batch's execution produced."""

    #: txn -> COMMITTED | LOGIC_ABORT.
    fates: dict[TxnId, str] = field(default_factory=dict)
    #: reads whose source writer logic-aborted, re-bound down the chain.
    rebound_reads: int = 0
    steps_executed: int = 0

    @property
    def committed(self) -> set[TxnId]:
        return {t for t, fate in self.fates.items() if fate == COMMITTED}


class PlanExecutor:
    """Execute planned batches over the planner's sharded store."""

    def __init__(self, store: ShardedMultiversionStore) -> None:
        self.store = store

    def execute(
        self, plan: BatchPlan, first_position: int
    ) -> ExecutionOutcome:
        """Run ``plan`` in timestamp order; ``first_position`` is its
        first install position (a re-bound source below it is pre-batch
        state, not a dependency).
        """
        outcome = ExecutionOutcome()
        fates = outcome.fates
        try:
            for ptxn in plan:
                fate, rebound, steps = self._run_one(ptxn, first_position)
                fates[ptxn.txn] = fate
                outcome.rebound_reads += rebound
                outcome.steps_executed += steps
        except Exception as error:
            raise EngineError(f"plan execution crashed: {error!r}") from error
        return outcome

    def _run_one(
        self, ptxn: PlannedTransaction, first_position: int
    ) -> tuple[str, int, int]:
        """Run one transaction to publish or poison; no third ending.

        Returns (fate, re-bound reads, steps run).
        """
        reads: list = []
        own_values: dict[int, object] = {}
        computed: list = []
        rebound = 0
        steps = 0
        txn = ptxn.txn
        bindings = iter(ptxn.bindings)
        slots = iter(ptxn.slots)
        for step in ptxn.transaction.steps:
            steps += 1
            if step.op is _READ:
                binding = next(bindings)
                source = binding.source
                value = source.value
                if value is UNWRITTEN:
                    # Not a committed version nor a filled slot: the
                    # reader's own pending write, a dead writer's slot,
                    # or a slot whose writer has not run.
                    if binding.source_txn == txn:
                        value = own_values[id(source)]
                    elif source.state is _POISONED:
                        rebound += 1
                        value = self._rebind(
                            ptxn, len(reads), source, first_position
                        ).value
                    else:
                        raise _undecided(source, txn)
                reads.append(value)
            else:
                slot = next(slots)
                try:
                    value = write_value(
                        ptxn.program, txn, len(computed), reads
                    )
                except Exception:  # noqa: BLE001 — a raise IS the abort
                    self._poison_all(ptxn)
                    return LOGIC_ABORT, rebound, steps
                own_values[id(slot)] = value
                computed.append((slot, value))
        # Publish: the transaction's commit point.  Nothing was visible
        # to other transactions before this loop, so an abort above never
        # needs to retract consumed values.
        fill = self.store.fill
        for slot, value in computed:
            fill(slot, value)
        return COMMITTED, rebound, steps

    def _rebind(
        self,
        ptxn: PlannedTransaction,
        index: int,
        dead,
        first_position: int,
    ):
        """Re-bind read ``index`` of ``ptxn`` past its poisoned source.

        Walks down ``dead``'s chain to the newest version whose writer did
        not logic-abort, stepping past every poisoned slot.  Planning
        reserves each entity's slots in timestamp order, so that version
        is exactly what planning would have bound had the dead writers
        never been admitted.  A source at or above ``first_position`` is
        a commit dependency on its writer; anything below is pre-batch
        state — a previous batch's slot included — and a base read.
        Returns the new source.
        """
        store = self.store
        entity = dead.entity
        source = dead
        while source.is_placeholder and source.state is _POISONED:
            source = store.latest_before(entity, source.position)
        if source.is_placeholder and source.state is _PENDING:
            raise _undecided(source, ptxn.txn)
        in_batch = (
            source.position is not None and source.position >= first_position
        )
        bindings = ptxn.bindings
        old = bindings[index]
        bindings[index] = ReadBinding(
            old.txn, old.step_index, source,
            source.writer if in_batch else T_INIT,
        )
        ptxn.bind(bindings)
        return source

    def _poison_all(self, ptxn: PlannedTransaction) -> None:
        for slot in ptxn.slots:
            self.store.poison(slot)


def _undecided(source, reader: TxnId) -> EngineError:
    """A read found its source slot still PENDING: in timestamp order its
    writer has already run, so the plan or the executor is broken."""
    return EngineError(
        f"read of {source.entity!r} by {reader!r} found the slot of "
        f"{source.writer!r} at position {source.position} still pending"
    )


def verify_settled(plan: BatchPlan, outcome: ExecutionOutcome) -> None:
    """Every fate must be decided and consistent with the dependency plan.

    A committed transaction may not depend on a non-committed one — the
    publish-at-commit discipline makes that structurally impossible, so
    a violation is an executor bug, not a workload condition.
    """
    committed = outcome.committed
    for ptxn in plan:
        fate = outcome.fates.get(ptxn.txn)
        if fate is None:
            raise EngineError(f"transaction {ptxn.txn!r} was never executed")
        if fate == COMMITTED and not ptxn.deps <= committed:
            raise EngineError(
                f"committed transaction {ptxn.txn!r} depends on "
                f"aborted transaction(s) {set(ptxn.deps) - committed!r}"
            )
