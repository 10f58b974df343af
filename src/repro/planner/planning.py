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
once the writer publishes), not a rejection — Larson et al.'s commit
dependencies, which here never even wait: execution runs in timestamp
order, so a writer always publishes before its readers run.

Planning is one pass over the batch in (timestamp, step-index) order.
Each entity's walk state — its owning shard and the source its next
read is served, the newest slot reserved on it (else its base version),
with that source's writer — is made at the entity's first touch in the
batch, so every ``reserve``/``latest`` goes straight to the shard that
owns the entity.  Visiting the steps in
timestamp order visits each entity's steps in that order too, so the
newest slot walked so far is exactly "the newest version written by a
smaller-or-equal timestamp": both MVTO's read rule and — when the
writer is the reader itself — the own-write rule.

What a plan allocates: one :class:`ReadBinding` per read, one reserved
slot per write, one walk state per entity touched, and per transaction
the :class:`PlannedTransaction` itself, whose ``bindings``, ``slots``
and ``deps`` are appended in step order as the pass binds them.  The
plan-shape tally (base, own and dependent reads, commit dependencies,
reserved slots) is counted in the same pass and returned on the
:class:`BatchPlan`.
"""

# repro: deterministic-contract — equal seeds must yield byte-identical output

from __future__ import annotations

from typing import Callable, Sequence

from repro.engine.errors import EngineError
from repro.model.batching import BatchPlan, PlannedTransaction, ReadBinding
from repro.model.schedules import T_INIT
from repro.model.steps import Entity, Op
from repro.model.transactions import Transaction
from repro.storage.mvstore import MultiversionStore
from repro.storage.sharded import ShardedMultiversionStore, shard_of


#: The batch loop tests ``step.op`` against this local instead of calling
#: the ``is_write`` property once per step of the batch.
_WRITE = Op.WRITE


class _Walk:
    """One entity's walk state within a batch, made at its first touch."""

    __slots__ = ("store", "source", "writer")

    def __init__(self, store: MultiversionStore) -> None:
        #: the shard that owns the entity.
        self.store = store
        #: what a read of the entity is served next: the newest slot
        #: reserved on it so far, else the committed pre-batch version
        #: (captured at the first read), else None — and its writer.
        self.source = None
        self.writer = T_INIT


def plan_batch(
    items: Sequence[tuple[Transaction, Callable | None]],
    store: ShardedMultiversionStore,
    first_timestamp: int,
    first_position: int,
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
    which deliberately plans batch *k+1* before batch *k* has settled
    (and, planning further ahead, before it has run): a base read then
    binds to the newest chain slot even if it is another batch's
    placeholder — the planned final chain position is fixed at
    reservation, so the binding is exact either way, and a binding whose
    source's writer logic-aborts re-binds when its batch executes
    (:mod:`repro.planner.executor`).

    A store call that raises fails the call at once with one
    :class:`EngineError` chained from the cause, never a short plan.
    """
    if not over_placeholders and store.placeholder_count():
        raise EngineError("plan_batch over unsettled placeholders")
    shards = store.shards
    n_shards = store.n_shards
    walks: dict[Entity, _Walk] = {}
    planned: list[PlannedTransaction] = []
    position = first_position
    base_reads = own_reads = dependent_reads = commit_deps = 0
    try:
        for timestamp, (transaction, program) in enumerate(
            items, first_timestamp
        ):
            txn = transaction.txn
            bindings: list[ReadBinding] = []
            slots: list = []
            deps: set = set()
            for index, step in enumerate(transaction.steps):
                entity = step.entity
                walk = walks.get(entity)
                if walk is None:
                    walk = walks[entity] = _Walk(
                        shards[shard_of(entity, n_shards)]
                    )
                if step.op is _WRITE:
                    slot = walk.store.reserve(entity, txn, position)
                    position += 1
                    walk.source = slot
                    walk.writer = txn
                    slots.append(slot)
                    continue
                source = walk.source
                if source is None:
                    # Nothing reserved on the entity yet: the newest
                    # chain version is the pre-batch state.
                    source = walk.source = walk.store.latest(entity)
                writer = walk.writer
                bindings.append(ReadBinding(txn, index, source, writer))
                if writer == T_INIT:
                    base_reads += 1
                elif writer == txn:
                    own_reads += 1
                else:
                    dependent_reads += 1
                    deps.add(writer)
            commit_deps += len(deps)
            planned.append(PlannedTransaction(
                transaction, timestamp, program, bindings, slots,
                frozenset(deps),
            ))
    except Exception as error:
        raise EngineError(f"planning walk crashed: {error!r}") from error
    return BatchPlan(
        planned, position - first_position,
        base_reads, own_reads, dependent_reads, commit_deps,
    )
