"""The execution phase: run a planned batch with zero CC aborts.

Every read was bound to its exact source version at plan time, so
execution never consults a scheduler and can never be aborted by
concurrency control — the only run-time interaction between transactions
is a read *waiting* for its source slot to be published.  Transactions
publish at commit: write values are computed locally and all of a
transaction's slots are filled together after its last step, so no other
transaction ever consumes a value its writer might still retract.  A
transaction whose program raises (a *logic* abort — the one abort class
planning cannot remove) publishes nothing: it poisons its reserved
slots.  A reader that finds its source poisoned re-binds on the spot to
the next version down the chain — the version the MVTO rule serves had
the dead writer never been admitted — and runs on.  Nothing needs
undoing: a slot goes PENDING -> FILLED or PENDING -> POISONED, never
FILLED -> POISONED, so the reader has consumed nothing of the dead
writer's and its own slots are still pending.  Each planned transaction
runs exactly once; only a logic abort poisons.

Every fill and poison publishes under the slot's shard lock
(``store.lock_of``), on every path — the planning stage may be reserving
on the same shard from another thread, and the inline path is the
threaded program minus the threads, not a lock-free second one.  What
``deterministic`` selects is only which threads are started:

* **deterministic** — transactions run inline in timestamp order.  A
  read's source writer always has a smaller timestamp (or is the reader
  itself), so it has already published or poisoned and no read ever
  blocks: the whole batch is a sequential program.
* **threaded** — ``n_workers`` threads pull transactions from a shared
  queue in timestamp order; blocked reads park on the slot's event.
  Deadlock-free by induction: a transaction only ever waits on smaller
  timestamps (a re-bind only moves down the chain), and the smallest
  unfinished transaction never waits.

A crash inside ``_run_one`` — an executor or store bug, not a workload
condition — ends the batch in one :class:`EngineError` chained from the
cause, inline or threaded.
"""

# repro: deterministic-contract — equal seeds must yield byte-identical output

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field

from repro.engine.errors import EngineError
from repro.model.batching import BatchPlan, PlannedTransaction, ReadBinding
from repro.model.schedules import T_INIT
from repro.model.steps import Op, TxnId
from repro.storage.executor import write_value
from repro.storage.mvstore import PlaceholderState
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
    #: reads that found their source slot still pending and parked.
    blocked_reads: int = 0
    steps_executed: int = 0

    @property
    def committed(self) -> set[TxnId]:
        return {t for t, fate in self.fates.items() if fate == COMMITTED}


class PlanExecutor:
    """Execute planned batches over the planner's sharded store."""

    def __init__(
        self,
        store: ShardedMultiversionStore,
        n_workers: int = 4,
        deterministic: bool = False,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.store = store
        self.n_workers = n_workers
        self.deterministic = deterministic

    def execute(
        self, plan: BatchPlan, first_position: int
    ) -> ExecutionOutcome:
        """Run ``plan``; ``first_position`` is its first install position
        (a re-bound source below it is pre-batch state, not a dependency).
        """
        outcome = ExecutionOutcome()
        if self.deterministic or self.n_workers == 1:
            try:
                for ptxn in plan:
                    fate, blocked, steps = self._run_one(ptxn, first_position)
                    outcome.fates[ptxn.txn] = fate
                    outcome.blocked_reads += blocked
                    outcome.steps_executed += steps
            except Exception as error:
                raise _crashed(error) from error
            return outcome
        queue = deque(plan)
        mutex = threading.Lock()
        crashes: list[BaseException] = []

        def pull() -> PlannedTransaction | None:
            with mutex:
                return queue.popleft() if queue else None

        def worker() -> None:
            while True:
                ptxn = pull()
                if ptxn is None:
                    return
                try:
                    fate, blocked, steps = self._run_one(ptxn, first_position)
                except BaseException as error:  # noqa: BLE001
                    # An executor bug, not a workload condition — but a
                    # silently dead thread would strand readers parked on
                    # this transaction's slots forever.  Poison what is
                    # still pending so they wake and re-bind past it,
                    # then surface the bug after the join.
                    self._poison_pending(ptxn)
                    with mutex:
                        crashes.append(error)
                    return
                with mutex:
                    outcome.fates[ptxn.txn] = fate
                    outcome.blocked_reads += blocked
                    outcome.steps_executed += steps

        threads = [
            threading.Thread(target=worker, name=f"plan-exec-{k}")
            for k in range(self.n_workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if crashes:
            raise _crashed(crashes[0]) from crashes[0]
        return outcome

    def _run_one(
        self, ptxn: PlannedTransaction, first_position: int
    ) -> tuple[str, int, int]:
        """Run one transaction to publish or poison; no third ending.

        Returns (fate, blocked reads, steps run).
        """
        reads: list = []
        own_values: dict[int, object] = {}
        computed: list = []
        blocked = 0
        steps = 0
        txn = ptxn.txn
        bindings = iter(ptxn.bindings)
        slots = iter(ptxn.slots)
        for step in ptxn.transaction.steps:
            steps += 1
            if step.op is _READ:
                binding = next(bindings)
                source = binding.source
                if binding.source_txn == txn:
                    value = own_values[id(source)]
                elif source.is_placeholder:
                    if source.state is _PENDING:
                        blocked += 1
                        source.wait()
                    if source.state is _POISONED:
                        source = self._rebind(
                            ptxn, len(reads), source, first_position
                        )
                    value = source.value
                else:
                    value = source.value
                reads.append(value)
            else:
                slot = next(slots)
                try:
                    value = write_value(
                        ptxn.program, txn, len(computed), reads
                    )
                except Exception:  # noqa: BLE001 — a raise IS the abort
                    self._poison_all(ptxn)
                    return LOGIC_ABORT, blocked, steps
                own_values[id(slot)] = value
                computed.append((slot, value))
        # Publish: the transaction's commit point.  Nothing was visible
        # to other transactions before this loop, so an abort above never
        # needs to retract consumed values.
        for slot, value in computed:
            with self.store.lock_of(slot.entity):
                self.store.fill(slot, value)
        return COMMITTED, blocked, steps

    def _rebind(
        self,
        ptxn: PlannedTransaction,
        index: int,
        dead,
        first_position: int,
    ):
        """Re-bind read ``index`` of ``ptxn`` past its poisoned source.

        Walks down ``dead``'s chain to the newest version whose writer did
        not logic-abort, waiting on a pending slot (its writer has a
        smaller timestamp) and stepping past a poisoned one.  Planning
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
            with store.lock_of(entity):
                source = store.latest_before(entity, source.position)
            if source.is_placeholder and source.state is _PENDING:
                source.wait()
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
            with self.store.lock_of(slot.entity):
                self.store.poison(slot)

    def _poison_pending(self, ptxn: PlannedTransaction) -> None:
        """Crash-path cleanup: poison whatever is still undecided.

        Unlike the semantic abort paths (where publish-at-commit
        guarantees every slot is still pending), a crashed worker may
        have died mid-publish with some slots already filled; those are
        consumed values and stay — the run is aborting anyway.
        """
        for slot in ptxn.slots:
            if not slot.decided:
                with self.store.lock_of(slot.entity):
                    self.store.poison(slot)


def _crashed(error: BaseException) -> EngineError:
    return EngineError(f"plan execution worker crashed: {error!r}")


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
