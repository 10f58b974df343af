"""The planner driver: chunk, plan, execute, settle, collect.

:class:`BatchPlanner` is the plan-then-execute execution model next to
the serial engine (:class:`repro.engine.sessions.ConcurrentDriver`) and
the parallel shard runtime (:class:`repro.runtime.ShardRuntime`).  Where
those two *discover* conflicts at run time and pay for them with aborts
and replays, the planner removes them up front: the stream is chunked
into batches (one batch = one epoch), each batch is planned
(:mod:`repro.planner.planning`), executed abort-free
(:mod:`repro.planner.executor`), and *settled*:

* the committed set is the executed one.  A reader of a logic-aborted
  writer already re-bound past it during execution (see
  :mod:`repro.planner.executor`), and
  :func:`~repro.planner.executor.verify_settled` has checked, right
  after execution, that every committed transaction's ``deps`` are
  committed — the set is closed under commit dependencies.
* the logic-aborted transactions' poisoned slots are removed from the
  store; no placeholder of a settled batch survives it.
* the watermark GC (:class:`repro.engine.gc.WatermarkGC`) prunes behind
  the next batch's first install position — the engine's epoch watermark
  argument verbatim, since a batch's reads only ever bind epoch-local
  slots or the pre-batch base version.

Ticks count admissions and settles (a batch's settle tick is reserved
when its admissions close), so commit latency (in ticks, via the
engine's :class:`LatencyStats`) measures batching delay.

Everything runs on the caller's thread, one batch at a time: plan,
execute inline in timestamp order (:mod:`repro.planner.executor`),
settle, then plan the next batch over a store with no placeholder left.
The whole version function is fixed before a batch runs, so neither
threads nor planning ahead could change what is decided — only when
work happens, and under the GIL not how fast either.
"""

# repro: deterministic-contract — equal seeds must yield byte-identical output

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.errors import EngineError
from repro.engine.gc import WatermarkGC
from repro.model.batching import BatchPlan
from repro.model.schedules import T_INIT
from repro.model.steps import Entity, Op
from repro.obs.clock import perf_clock
from repro.obs import NULL_TRACER
from repro.planner.executor import (
    ExecutionOutcome,
    PlanExecutor,
    verify_settled,
)
from repro.planner.metrics import PlannerMetrics
from repro.planner.planning import plan_batch
from repro.storage.mvstore import MultiversionStore

_WRITE = Op.WRITE


def planned_data_ops(ptxn) -> list[tuple]:
    """The ``ops`` of a committed ptxn's ``txn.commit`` record.

    Built at settle time, when bindings are final (the executor re-binds
    reads whose source's writer aborted, so plan-time bindings may not
    be the served ones): in step order, ``(entity, pos)`` per write and
    ``(entity, pos, writer)`` per read, ``pos`` the installed or source
    chain position — the trace-wide join key between a read and the
    write that produced its version.  Settle iterates ptxns in
    timestamp order and a source writer always has a smaller timestamp,
    so every read's source commit precedes it in the stream.
    """
    # Both lists are in step order, one cell per read / per write.
    bindings = iter(ptxn.bindings)
    slots = iter(ptxn.slots)
    ops = []
    for step in ptxn.transaction.steps:
        if step.op is _WRITE:
            ops.append((step.entity, next(slots).position))
            continue
        source = next(bindings).source
        pos = None if source is None else source.position
        ops.append((
            step.entity, pos, T_INIT if pos is None else str(source.writer)
        ))
    return ops


@dataclass(eq=False)
class _Batch:
    """One planned batch, from plan to settle."""

    #: batch number in plan order (trace label).
    number: int
    plan: BatchPlan
    #: admission tick of each transaction, in plan order.
    born: list[int]
    #: global install position of the batch's first write.
    first_position: int
    outcome: ExecutionOutcome | None = None


class BatchPlanner:
    """Plan-then-execute MVCC over one multiversion store.

    ``run(stream) -> metrics`` and ``final_state()``.  ``n_workers`` is
    echoed in the metrics and changes nothing that is planned, executed
    or reported besides.
    """

    def __init__(
        self,
        initial: dict[Entity, object] | None = None,
        n_workers: int = 4,
        batch_size: int = 64,
        gc_enabled: bool = True,
        tracer=NULL_TRACER,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.tracer = tracer
        self.store = MultiversionStore(initial)
        self.batch_size = batch_size
        self.metrics = PlannerMetrics(
            n_workers=n_workers,
            batch_size=batch_size,
        )
        self.gc = (
            WatermarkGC(self.store, tracer=tracer, trace_track="driver")
            if gc_enabled
            else None
        )
        if self.gc is not None:
            self.metrics.engine.gc = self.gc.stats
        self.executor = PlanExecutor(self.store)
        self._next_timestamp = 0
        self._next_position = 0
        #: the stream being drained (None until ``run``; single-use).
        self._stream = None

    def final_state(self) -> dict[Entity, object]:
        return self.store.final_state()

    # -- main loop ---------------------------------------------------------

    def run(self, stream) -> PlannerMetrics:
        """Drain ``stream`` of ``(transaction, program)`` pairs."""
        if self._stream is not None:
            raise EngineError(
                f"a {type(self).__name__} instance is single-use"
            )
        started = perf_clock()
        self._stream = iter(stream)
        while True:
            batch = self._plan_one()
            if batch is None:
                break
            self._execute(batch)
            self._settle(batch)
            # Free the settled plan before the next one is built: it is
            # the run's largest allocation.
            del batch
        self.metrics.engine.elapsed = perf_clock() - started
        return self.metrics

    # -- planning stage ----------------------------------------------------

    def _plan_one(self) -> _Batch | None:
        metrics = self.metrics
        engine = metrics.engine
        tracing = self.tracer.enabled
        items: list = []
        born: list[int] = []
        for item in self._stream:
            engine.ticks += 1
            engine.attempts += 1
            if tracing:
                self.tracer.instant(
                    "txn", "txn.submit", "driver", txn=str(item[0].txn),
                )
            items.append(item)
            born.append(engine.ticks)
            if len(items) >= self.batch_size:
                break
        if not items:
            return None
        # Every earlier batch has settled, so this one's number is theirs.
        number = engine.epochs_closed
        if tracing:
            self.tracer.begin(
                "plan", "plan.batch", "plan",
                batch=number, txns=len(items),
            )
        # Reserved for this batch's settle: nothing ticks between here
        # and the settle, which reads it back off ``engine.ticks``.
        engine.ticks += 1
        first_position = self._next_position
        plan = plan_batch(
            items, self.store, self._next_timestamp, first_position
        )
        self._next_timestamp += len(items)
        self._next_position += plan.reserved
        metrics.placeholders_reserved += plan.reserved
        metrics.base_reads += plan.base_reads
        metrics.own_reads += plan.own_reads
        metrics.dependent_reads += plan.dependent_reads
        metrics.commit_deps += plan.commit_deps
        if tracing:
            self.tracer.end(
                "plan", "plan.batch", "plan",
                batch=number, txns=len(items),
            )
        return _Batch(number, plan, born, first_position)

    # -- execution stage ---------------------------------------------------

    def _execute(self, batch: _Batch) -> None:
        tracing = self.tracer.enabled
        if tracing:
            self.tracer.begin(
                "execute", "execute.batch", "execute", batch=batch.number,
            )
        outcome = self.executor.execute(batch.plan, batch.first_position)
        verify_settled(batch.plan, outcome)
        self.metrics.rebound_reads += outcome.rebound_reads
        self.metrics.engine.steps_submitted += outcome.steps_executed
        batch.outcome = outcome
        if tracing:
            self.tracer.end(
                "execute", "execute.batch", "execute",
                batch=batch.number, steps=outcome.steps_executed,
            )

    # -- settle ------------------------------------------------------------

    def _settle(self, batch: _Batch) -> None:
        """Commit accounting, abort removal, GC behind the next batch's
        first install position.  No placeholder survives a settle."""
        metrics = self.metrics
        engine = metrics.engine
        outcome = batch.outcome
        tracing = self.tracer.enabled
        if tracing:
            self.tracer.begin(
                "settle", "settle.batch", "driver", batch=batch.number,
            )
        committed = outcome.committed
        settle_tick = engine.ticks
        for ptxn, tick in zip(batch.plan, batch.born):
            if ptxn.txn in committed:
                engine.committed += 1
                latency = settle_tick - tick
                engine.latency.record(latency)
                if tracing:
                    self.tracer.instant(
                        "txn", "txn.commit", "driver",
                        txn=str(ptxn.txn), latency=latency,
                        ops=planned_data_ops(ptxn),
                    )
                continue
            metrics.logic_aborted += 1
            if tracing:
                self.tracer.instant(
                    "txn", "txn.abort", "driver",
                    txn=str(ptxn.txn), reason="logic",
                    installed=[slot.position for slot in ptxn.slots],
                )
            for slot in ptxn.slots:
                self.store.remove(slot)
        if self.store.placeholder_count():
            raise EngineError(
                f"{self.store.placeholder_count()} undecided placeholders "
                "after settle"
            )
        engine.epochs_closed += 1
        if self.gc is not None:
            self.gc.collect(self._next_position)
        engine.final_versions = self.store.version_count()
        if tracing:
            self.tracer.end(
                "settle", "settle.batch", "driver",
                batch=batch.number, committed=len(committed),
            )
