"""The planning phase: fix version placement before anything executes.

Given a batch of transactions and a total timestamp order (batch
arrival order), planning decides, per entity:

* where every write's version will sit in the chain — a placeholder is
  *reserved* at its final position (:meth:`MultiversionStore.reserve`);
* which exact version every read will be served — the reader's own
  latest earlier write, else the newest reserved slot of a
  smaller-timestamp transaction, else the committed base version.

This is MVTO's version rule evaluated *statically*: because the whole
batch is visible up front, no read can ever arrive "too late" for its
version, so execution needs no scheduler and can never be aborted by
concurrency control.  A read bound to another transaction's reserved
slot becomes a *commit dependency* (the reader consumes the value only
once the writer publishes), not a rejection — the Larson et al.
mechanics that replace aborts with waits.

Planning is embarrassingly parallel by entity: accesses are partitioned
with the same crc32 hash the sharded store uses (partition *p* owns
shard *p* outright), so partition walks touch disjoint store slices.
One rule covers every caller: a walk holds its shard's lock per entity,
whether the partitions run on threads or inline in index order.  Both
produce the identical plan, because the walk of one entity depends on
nothing outside that entity.

What a plan allocates: one tuple per step (the record the batch loop
files under the step's entity), one :class:`ReadBinding` per read, one
reserved slot per write — nothing per transaction but the
:class:`PlannedTransaction` itself, whose ``bindings`` and ``slots``
lists the batch loop pre-sizes with one empty cell per read and per
write.  The walks write each binding and slot into its cell.  No two
walks share a cell — a cell belongs to one step, a step to one entity,
an entity to one partition — the lists keep their length while the walks
run, and nothing reads a cell before the join, so the threaded walks
need no lock on the plan, only the shard's lock on the store.
"""

# repro: deterministic-contract — equal seeds must yield byte-identical output

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Callable, Sequence

from repro.engine.errors import EngineError
from repro.model.batching import BatchPlan, PlannedTransaction, ReadBinding
from repro.model.schedules import T_INIT
from repro.model.steps import Entity, Op
from repro.model.transactions import Transaction
from repro.storage.sharded import ShardedMultiversionStore, shard_of


#: The batch loop tests ``step.op`` against this local instead of calling
#: the ``is_write`` property once per step of the batch.
_WRITE = Op.WRITE

#: One step's record in the per-entity walk: ``(ptxn, step index,
#: ordinal, position)``.  ``ordinal`` is the step's cell in its
#: transaction's ``bindings`` (a read) or ``slots`` (a write);
#: ``position`` is the write's pre-assigned global install position and
#: ``None`` for a read.
_Record = tuple[PlannedTransaction, int, int, int | None]


def plan_batch(
    items: Sequence[tuple[Transaction, Callable | None]],
    store: ShardedMultiversionStore,
    first_timestamp: int,
    first_position: int,
    threaded: bool = False,
    over_placeholders: bool = False,
) -> BatchPlan:
    """Plan one batch: reserve every write slot, bind every read.

    ``items`` arrive in timestamp order; ``first_position`` is the global
    install position of the batch's first write (positions stay monotonic
    across batches, which is what makes the per-batch GC watermark
    identical to the engine's epoch watermark).

    By default the store must carry no placeholders — a previous batch
    that left any behind was never settled, which is a driver bug, not a
    plannable state.  ``over_placeholders=True`` lifts that precondition
    for the driver at ``lookahead >= 1`` (:mod:`repro.planner.driver`),
    which deliberately plans batch *k+1* while batch *k*'s reserved slots are
    still deciding: a base read then binds to the newest chain slot even
    if it is another batch's pending placeholder — the planned final
    chain position is fixed at reservation, so the binding is exact
    either way, and the driver re-binds the few bindings whose
    source is later removed by an abort.

    A partition walk that raises fails the call with one
    :class:`EngineError` chained from the cause — after the join when
    the walks are threaded, at once when they run inline — never a
    silently short plan.
    """
    if not over_placeholders and store.placeholder_count():
        raise EngineError("plan_batch over unsettled placeholders")
    planned: list[PlannedTransaction] = []
    by_entity: defaultdict[Entity, list[_Record]] = defaultdict(list)
    position = first_position
    for offset, (transaction, program) in enumerate(items):
        ptxn = PlannedTransaction(
            transaction, first_timestamp + offset, program
        )
        planned.append(ptxn)
        # One empty cell per read and per write; the walks fill the cells
        # in place.
        bindings, slots = ptxn.bindings, ptxn.slots
        for index, step in enumerate(transaction.steps):
            if step.op is _WRITE:
                record = (ptxn, index, len(slots), position)
                slots.append(None)
                position += 1
            else:
                record = (ptxn, index, len(bindings), None)
                bindings.append(None)
            by_entity[step.entity].append(record)

    n_partitions = store.n_shards
    partitions: list[list[Entity]] = [[] for _ in range(n_partitions)]
    for entity in by_entity:
        partitions[shard_of(entity, n_partitions)].append(entity)

    def walk_partition(p: int) -> None:
        # Partition p owns shard p outright; the lock is taken per entity
        # so an executing batch's fills on the shard interleave with the
        # walk instead of stalling behind it.
        for entity in sorted(partitions[p]):
            with store.locks[p]:
                _walk_entity(entity, by_entity[entity], store)

    if threaded and n_partitions > 1:
        crashes: list[BaseException] = []

        def relay(p: int) -> None:
            try:
                walk_partition(p)
            except BaseException as error:  # noqa: BLE001 — raised below
                crashes.append(error)

        threads = [
            threading.Thread(target=relay, args=(p,), name=f"plan-{p}")
            for p in range(n_partitions)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if crashes:
            # A dead walk leaves cells of its transactions empty; the
            # plan must not reach the executor.
            raise _crashed(crashes[0]) from crashes[0]
    else:
        try:
            for p in range(n_partitions):
                walk_partition(p)
        except Exception as error:
            raise _crashed(error) from error

    for ptxn in planned:
        if None in ptxn.bindings or None in ptxn.slots:
            # A walk that skipped an entity must not reach the executor
            # as an AttributeError on the empty cell.
            raise EngineError(
                f"planning left a step of {ptxn.txn!r} unbound"
            )
        ptxn.bind(ptxn.bindings)
    return BatchPlan(planned)


def _crashed(error: BaseException) -> EngineError:
    return EngineError(f"partition planning thread crashed: {error!r}")


def _walk_entity(
    entity: Entity,
    records: list[_Record],
    store: ShardedMultiversionStore,
) -> None:
    """Resolve one entity's accesses in (timestamp, step-index) order.

    ``records`` is already in that order: the batch loop appends per
    transaction in timestamp order and per step in index order.  The
    newest slot walked so far is exactly "the newest version written by
    a smaller-or-equal timestamp", which is both MVTO's read rule and —
    when the writer is the reader itself — the own-write rule.
    """
    base = None
    last_slot = None
    last_txn = T_INIT
    for ptxn, index, ordinal, position in records:
        txn = ptxn.transaction.txn
        if position is not None:
            last_slot = store.reserve(entity, txn, position)
            last_txn = txn
            ptxn.slots[ordinal] = last_slot
        elif last_slot is None:
            if base is None:
                # Captured before this walk reserves anything on the
                # entity, so it is the committed pre-batch state.
                base = store.latest(entity)
            ptxn.bindings[ordinal] = ReadBinding(txn, index, base, T_INIT)
        else:
            ptxn.bindings[ordinal] = ReadBinding(
                txn, index, last_slot, last_txn
            )
