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
engine's :class:`LatencyStats`) measures batching delay and is identical
at every ``deterministic`` setting and every ``lookahead``.

``lookahead`` is how many batches planning may run ahead of the one
executing — the pipelining Faleiro & Abadi's plan-then-execute design
exists to enable.  At 0 (the ``planner`` mode) the stages run strictly
in sequence and nothing is ever in flight across a settle.  At 1 or more
(the ``pipelined`` mode) batches *k+1 … k+lookahead* are planned after
batch *k* executes and before it settles, and the whole difficulty
lives at the boundary between a settling batch and an in-flight plan:

* **Base capture against reserved positions.**  Batch *k+1* is planned
  before batch *k* settles (and batch *k+2* before *k+1* has run), so a
  base read binds to the newest *chain slot* — possibly another batch's
  placeholder.  That is exact, not optimistic: a placeholder occupies
  its final chain position from reservation, so "the newest version
  below my batch" is already known whatever its writer's fate.
  Cross-batch bindings keep the ``T_INIT`` base classification (they
  are pre-batch state, exactly what base capture would see one settle
  later), so plan shape and the native metrics do not depend on
  ``lookahead``.
* **Aborts re-bind where they are read, never replan.**  Batch *k+1*
  executes only after batch *k* settled, so every cross-batch source is
  decided.  A binding to a slot whose writer logic-aborted stays as
  planned: settle removed the slot, but it stays POISONED, so when *k+1*
  executes the reader re-binds exactly as a reader inside batch *k*
  would — one walk down the chain
  (:meth:`~repro.planner.executor.PlanExecutor._rebind`) to the newest
  survivor, which lies below *k+1*'s first position (on that entity
  nothing was reserved between, or planning would have bound to it) and
  is therefore a ``T_INIT`` base read: the version the plan would have
  bound had the aborted slot never been reserved.
* **GC honors in-flight plans.**  Every plan pins its first install
  position in the :class:`~repro.engine.gc.WatermarkGC` from plan time
  to settle; the collector clamps any requested watermark to the lowest
  pin, and ``prune_before`` keeps the newest version below the watermark
  per entity — which is precisely every in-flight binding's base
  source, or the survivor a binding to a removed slot re-binds to.
  Bound versions structurally cannot be pruned.

Everything runs on the caller's thread, at every ``lookahead`` and every
``deterministic`` setting: plan, execute inline in timestamp order
(:mod:`repro.planner.executor`), plan ahead, settle.  The whole version
function is fixed before a batch runs, so threads could only change
*when* work happens, never what is decided — and under the GIL not how
fast either.  ``deterministic`` selects only the trace clock and
whether the report prints a txn/s figure.  The settled plan, the final
state and ``metrics.as_dict()`` are byte-identical at every
``lookahead`` for equal seeds — pipelining changes when planning
happens, never what is planned; only how many reads reach a dead
writer's slot, and so re-bind, moves with it.
"""

# repro: deterministic-contract — equal seeds must yield byte-identical output

from __future__ import annotations

from collections import deque
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
from repro.storage.sharded import ShardedMultiversionStore

_WRITE = Op.WRITE


def emit_planned_data_ops(tracer, ptxn) -> None:
    """Emit ``txn.read``/``txn.write`` instants for one committed ptxn.

    Emitted at settle time, when bindings are final (the executor
    re-binds reads whose source's writer aborted, so plan-time bindings
    may not be the served ones) and the fate is known
    (aborted transactions never read or wrote anything durable — their
    slots are removed).  ``pos`` is the source/installed chain position
    — the trace-wide join key between a read and the write that produced
    its version; ``seq`` is the plan timestamp (planned transactions run
    exactly once, so it only disambiguates, never cancels).  Settle
    iterates ptxns in timestamp order and a source writer always has a
    smaller timestamp, so every read's source write event precedes it
    in the stream.
    """
    # Both lists are in step order, one cell per read / per write.
    bindings = iter(ptxn.bindings)
    slots = iter(ptxn.slots)
    txn = str(ptxn.txn)
    seq = ptxn.timestamp
    # One emit per step of every committed transaction: the loop reads
    # nothing through a property or a repeated attribute lookup.
    instant = tracer.instant
    for step in ptxn.transaction.steps:
        if step.op is _WRITE:
            instant(
                "data", "txn.write", "driver",
                txn=txn, seq=seq, entity=step.entity,
                pos=next(slots).position,
            )
            continue
        source = next(bindings).source
        pos = None if source is None else source.position
        instant(
            "data", "txn.read", "driver",
            txn=txn, seq=seq, entity=step.entity,
            pos=pos,
            writer=T_INIT if pos is None else str(source.writer),
        )


@dataclass(eq=False)
class _InFlight:
    """One planned-but-not-settled batch."""

    #: batch number in plan order (trace label).
    number: int
    plan: BatchPlan
    #: admission tick of each transaction, in plan order.
    born: list[int]
    #: the tick the batch's settle is accounted at (reserved when its
    #: admissions close, so later batches' admissions count past it).
    settle_tick: int
    #: global install position of the batch's first write (the GC pin).
    first_position: int
    #: write slots the plan reserved (pending until the batch settles).
    n_slots: int
    outcome: ExecutionOutcome | None = None


class BatchPlanner:
    """Plan-then-execute MVCC over a sharded multiversion store.

    ``run(stream) -> metrics`` and ``final_state()``; ``lookahead`` is
    how many batches may be planned ahead of the one executing (0 —
    strictly sequential stages; 1 — classic two-stage pipelining).
    """

    def __init__(
        self,
        initial: dict[Entity, object] | None = None,
        n_workers: int = 4,
        batch_size: int = 64,
        deterministic: bool = False,
        gc_enabled: bool = True,
        tracer=NULL_TRACER,
        lookahead: int = 0,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if lookahead < 0:
            raise ValueError("lookahead must be >= 0")
        self.tracer = tracer
        #: one store shard per worker.
        self.store = ShardedMultiversionStore(n_workers, initial)
        self.batch_size = batch_size
        self.lookahead = lookahead
        self.deterministic = deterministic
        self.metrics = PlannerMetrics(
            n_workers=n_workers,
            batch_size=batch_size,
            deterministic=deterministic,
            lookahead=lookahead,
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
        #: batches planned so far.
        self._plan_seq = 0
        #: the stream being drained (None until ``run``; single-use).
        self._stream = None
        self._drained = False

    def final_state(self) -> dict[Entity, object]:
        return self.store.final_state()

    # -- main loop ---------------------------------------------------------

    def run(self, stream) -> PlannerMetrics:
        """Drain ``stream`` of ``(transaction, program)`` pairs."""
        if self._stream is not None:
            raise EngineError(
                f"a {type(self).__name__} instance is single-use"
            )
        engine = self.metrics.engine
        if self.tracer.enabled and self.deterministic:
            # The tick counts admissions and settles and is identical
            # across runs — the deterministic trace clock.
            self.tracer.use_clock(lambda: engine.ticks)
        started = perf_clock()
        self._stream = iter(stream)
        plans: deque[_InFlight] = deque()
        while True:
            # The first batch, and with lookahead=0 (nothing is ever
            # planned ahead) every batch.
            self._refill(plans, target=1)
            if not plans:
                break
            head = plans.popleft()
            self._execute(head)
            # Plan ahead pre-settle: head's slots are still in the chains.
            self._refill(plans, target=self.lookahead)
            self._settle(head, plans)
            # Free the settled plan before the next one is built: it is
            # the run's largest allocation, and holding it across the
            # next planning pass costs lookahead=0 a few percent.
            del head
        engine.elapsed = perf_clock() - started
        return self.metrics

    # -- planning stage ----------------------------------------------------

    def _refill(self, plans: deque, target: int) -> None:
        """Plan batches until ``target`` are in flight or the stream ends."""
        while len(plans) < target and not self._drained:
            inflight = self._plan_one()
            if inflight is None:
                self._drained = True
                break
            plans.append(inflight)

    def _plan_one(self) -> _InFlight | None:
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
        number = self._plan_seq
        self._plan_seq += 1
        if tracing:
            self.tracer.begin(
                "plan", "plan.batch", "plan",
                batch=number, txns=len(items),
            )
        engine.ticks += 1  # reserved for this batch's settle
        first_position = self._next_position
        if self.gc is not None:
            self.gc.pin(first_position)
        # At lookahead=0 nothing is in flight while planning, so a
        # leftover placeholder is a driver bug.
        plan = plan_batch(
            items,
            self.store,
            self._next_timestamp,
            first_position,
            over_placeholders=self.lookahead > 0,
        )
        self._next_timestamp += len(items)
        n_slots = plan.reserved
        self._next_position += n_slots
        metrics.placeholders_reserved += n_slots
        metrics.base_reads += plan.base_reads
        metrics.own_reads += plan.own_reads
        metrics.dependent_reads += plan.dependent_reads
        metrics.commit_deps += plan.commit_deps
        if tracing:
            self.tracer.end(
                "plan", "plan.batch", "plan",
                batch=number, txns=len(items),
            )
        return _InFlight(
            number, plan, born, engine.ticks, first_position, n_slots
        )

    # -- execution stage ---------------------------------------------------

    def _execute(self, head: _InFlight) -> None:
        tracing = self.tracer.enabled
        if tracing:
            self.tracer.begin(
                "execute", "execute.batch", "execute", batch=head.number,
            )
        outcome = self.executor.execute(head.plan, head.first_position)
        verify_settled(head.plan, outcome)
        self.metrics.rebound_reads += outcome.rebound_reads
        self.metrics.engine.steps_submitted += outcome.steps_executed
        head.outcome = outcome
        if tracing:
            self.tracer.end(
                "execute", "execute.batch", "execute",
                batch=head.number, steps=outcome.steps_executed,
            )

    # -- settle ------------------------------------------------------------

    def _settle(self, head: _InFlight, plans: deque) -> None:
        """Commit accounting, abort removal, GC.

        ``plans`` are the batches planned ahead of ``head`` (none at
        lookahead=0): their slots are the only placeholders left, and the
        settled batch's GC pin is released before collecting (the clamp
        then moves to the oldest remaining plan).
        """
        metrics = self.metrics
        engine = metrics.engine
        outcome = head.outcome
        tracing = self.tracer.enabled
        if tracing:
            self.tracer.begin(
                "settle", "settle.batch", "driver", batch=head.number,
            )
        committed = outcome.committed
        for ptxn, tick in zip(head.plan, head.born):
            if ptxn.txn in committed:
                engine.committed += 1
                latency = head.settle_tick - tick
                engine.latency.record(latency)
                if tracing:
                    emit_planned_data_ops(self.tracer, ptxn)
                    self.tracer.instant(
                        "txn", "txn.commit", "driver",
                        txn=str(ptxn.txn), latency=latency,
                    )
                continue
            metrics.logic_aborted += 1
            if tracing:
                self.tracer.instant(
                    "txn", "txn.abort", "driver",
                    txn=str(ptxn.txn), reason="logic",
                )
            for slot in ptxn.slots:
                self.store.remove(slot)
        expected = sum(p.n_slots for p in plans)
        if self.store.placeholder_count() != expected:
            raise EngineError(
                f"{self.store.placeholder_count()} undecided placeholders "
                f"after settle; {expected} reserved by in-flight plans"
            )
        engine.epochs_closed += 1
        if self.gc is not None:
            self.gc.unpin(head.first_position)
            self.gc.collect(self._next_position)
        engine.final_versions = self.store.version_count()
        if tracing:
            self.tracer.end(
                "settle", "settle.batch", "driver",
                batch=head.number, committed=len(committed),
            )
