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
in deterministic and threaded mode and at every ``lookahead``.

``lookahead`` is how many batches planning may run ahead of the one
executing — the pipelining Faleiro & Abadi's plan-then-execute design
exists to enable.  At 0 (the ``planner`` mode) the stages run strictly
in sequence: planning walks its partitions inline, execution uses
``n_workers`` threads, and nothing is ever in flight across a settle.
At 1 or more (the ``pipelined`` mode) a background stage plans batches
*k+1 … k+lookahead* while batch *k* executes, and the whole difficulty
lives at the boundary between an executing batch and an in-flight plan:

* **Base capture against reserved positions.**  Batch *k+1* is planned
  while batch *k*'s slots are still deciding, so a base read binds to
  the newest *chain slot* — possibly batch *k*'s pending placeholder.
  That is exact, not optimistic: a placeholder occupies its final chain
  position from reservation, so "the newest version below my batch" is
  already known even though its payload is not.  Cross-batch bindings
  keep the ``T_INIT`` base classification (they are pre-batch state,
  exactly what base capture would see one settle later), so plan shape
  and the native metrics do not depend on ``lookahead``.
* **Aborts re-bind where they are read, never replan.**  Batch *k+1*
  executes only after batch *k* settled, so every cross-batch source is
  decided and no read ever waits on another batch's slot.  A binding to
  a slot whose writer logic-aborted stays as planned: settle removed the
  slot, but it stays POISONED, so when *k+1* executes the reader
  re-binds exactly as a reader inside batch *k* would — one walk down
  the chain (:meth:`~repro.planner.executor.PlanExecutor._rebind`) to
  the newest survivor, which lies below *k+1*'s first position (on that
  entity nothing was reserved between, or planning would have bound to
  it) and is therefore a ``T_INIT`` base read: the version the plan
  would have bound had the aborted slot never been reserved.
* **GC honors in-flight plans.**  Every plan pins its first install
  position in the :class:`~repro.engine.gc.WatermarkGC` from plan time
  to settle; the collector clamps any requested watermark to the lowest
  pin, and ``prune_before`` keeps the newest version below the watermark
  per entity — which is precisely every in-flight binding's base
  source, or the survivor a binding to a removed slot re-binds to.
  Bound versions structurally cannot be pruned.

With ``lookahead >= 1`` stage concurrency replaces intra-batch execution
threads: each planned batch executes inline in timestamp order (a
reader's source writer always has a smaller timestamp, so it has already
published or poisoned — the executor's deterministic-mode argument,
valid for any single-threaded timestamp-order run).  The two stages
share the store under its one rule: every publish and every per-entity
planning walk holds the entity's shard lock, at every ``lookahead``,
threads or not.

Deterministic mode keeps the pipeline's *order* but not its threads:
plan the next batches inline after executing (pre-settle, so planning
sees the identical chain state the background stage would), then
settle.  The settled plan, the final state and ``metrics.as_dict()``
are byte-identical at every ``lookahead`` for equal seeds — pipelining
changes when planning happens, never what is planned; only how many
reads reach a dead writer's slot, and so re-bind, moves with it.
"""

# repro: deterministic-contract — equal seeds must yield byte-identical output

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from queue import SimpleQueue

from repro.engine.errors import EngineError
from repro.engine.gc import WatermarkGC
from repro.model.batching import BatchPlan
from repro.model.schedules import T_INIT
from repro.model.steps import Entity
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
    for step in ptxn.transaction.steps:
        if step.is_write:
            slot = next(slots)
            tracer.instant(
                "data", "txn.write", "driver",
                txn=txn, seq=ptxn.timestamp, entity=step.entity,
                pos=slot.position,
            )
            continue
        source = next(bindings).source
        pos = None if source is None else source.position
        tracer.instant(
            "data", "txn.read", "driver",
            txn=txn, seq=ptxn.timestamp, entity=step.entity,
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


class _PlanStage:
    """The background planning stage: one thread for the whole run.

    ``begin()`` hands the thread one round of ``work`` and returns once
    the thread is running it; ``wait()`` returns when the round is done
    — what ``Thread.start`` and ``Thread.join`` gave the driver when it
    built a thread per batch, without the thread: creation and teardown
    (a stack to map and unmap, a new thread's first scheduling) on every
    hand-off cost little on an idle host and several times the batch
    itself on a busy one, so the run's speed followed the host's load.
    Between rounds the thread is parked on its queue.  ``work`` must not
    raise.
    """

    def __init__(self, work) -> None:
        self._work = work
        #: driver -> stage: True for a round to run, False to stop.
        self._rounds: SimpleQueue = SimpleQueue()
        #: stage -> driver, twice a round: picked up, then finished.
        self._acks: SimpleQueue = SimpleQueue()
        self._thread = threading.Thread(
            target=self._serve, name="pipeline-plan"
        )
        self._thread.start()

    def _serve(self) -> None:
        while self._rounds.get():
            self._acks.put(None)
            try:
                self._work()
            finally:
                self._acks.put(None)

    def begin(self) -> None:
        self._rounds.put(True)
        self._acks.get()

    def wait(self) -> None:
        self._acks.get()

    def close(self) -> None:
        """Stop the thread; no round may be in flight."""
        self._rounds.put(False)
        self._thread.join()


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
        #: one store shard per worker: planning partition p and the
        #: execution threads' fills both address shard-sliced state.
        self.store = ShardedMultiversionStore(n_workers, initial)
        self.batch_size = batch_size
        self.lookahead = lookahead
        self.deterministic = deterministic
        #: planning runs on a background thread while a batch executes.
        self._overlap = lookahead > 0 and not deterministic
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
        #: sequential stages execute on ``n_workers`` threads; behind a
        #: planning stage each batch executes inline.
        self.executor = PlanExecutor(
            self.store, 1 if lookahead else n_workers, deterministic
        )
        self._next_timestamp = 0
        self._next_position = 0
        #: batches planned so far.
        self._plan_seq = 0
        #: the stream being drained (None until ``run``; single-use).
        self._stream = None
        self._drained = False
        #: span of the last background planning run (set by the planning
        #: thread, read by the driver after join).
        self._plan_span: tuple[float, float, int] | None = None
        #: exception the planning thread died on (re-raised by the
        #: driver after join — a dead stage must fail the run, not
        #: silently truncate the stream).
        self._plan_error: BaseException | None = None

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
            # across runs — the deterministic trace clock.  Threaded
            # runs keep the wall clock: the overlap between the plan
            # and execute tracks is the point.
            self.tracer.use_clock(lambda: engine.ticks)
        started = perf_clock()
        self._stream = iter(stream)
        plans: deque[_InFlight] = deque()
        stage = (
            _PlanStage(lambda: self._refill_timed(plans, self.lookahead))
            if self._overlap
            else None
        )
        try:
            self._drain(plans, stage)
        finally:
            if stage is not None:
                stage.close()
        engine.elapsed = perf_clock() - started
        return self.metrics

    def _drain(self, plans: deque, stage: _PlanStage | None) -> None:
        """The run loop; ``stage`` plans ahead in the background, if set."""
        while True:
            # Inline planning: the first batch, and with lookahead=0
            # (nothing is ever planned ahead) every batch.
            self._refill(plans, target=1)
            if not plans:
                break
            head = plans.popleft()
            if stage is None:
                self._execute(head)
                # Plan ahead pre-settle: the background stage would see
                # exactly this chain state (head's slots still present).
                self._refill(plans, target=self.lookahead)
            else:
                self._plan_span = None
                exec_started = perf_clock()
                stage.begin()
                try:
                    self._execute(head)
                    exec_ended = perf_clock()
                finally:
                    # Always join before unwinding: a failed execute must
                    # not leave the planning stage draining the caller's
                    # stream and mutating pins/positions in the background.
                    stage.wait()
                if self._plan_error is not None:
                    # The stream iterator or the planner itself raised on
                    # the background thread; surface it exactly like the
                    # inline path would.
                    raise self._plan_error
                self._note_overlap(exec_started, exec_ended)
            self._settle(head, plans)
            # Free the settled plan before the next one is built: it is
            # the run's largest allocation, and holding it across the
            # next planning pass costs lookahead=0 a few percent.
            del head

    # -- planning stage ----------------------------------------------------

    def _refill_timed(self, plans: deque, target: int) -> None:
        begun = perf_clock()
        try:
            planned = self._refill(plans, target)
        except BaseException as error:  # noqa: BLE001 — re-raised by run()
            self._plan_error = error
            return
        self._plan_span = (begun, perf_clock(), planned)

    def _note_overlap(self, exec_started: float, exec_ended: float) -> None:
        if not self._plan_span:
            return
        plan_started, plan_ended, planned = self._plan_span
        metrics = self.metrics
        metrics.plan_elapsed += plan_ended - plan_started
        window = min(exec_ended, plan_ended) - max(exec_started, plan_started)
        if planned and window > 0:
            metrics.overlap_elapsed += window
            metrics.batches_overlapped += planned

    def _refill(self, plans: deque, target: int) -> int:
        """Plan batches until ``target`` are in flight or the stream ends.

        Runs on the background thread when planning overlaps execution;
        the driver never touches ``plans``, the stream, positions,
        timestamps, ticks or the plan-shape counters while it does (it
        is executing the already popped head), so the two stages share
        no mutable state but the store — which the walk locks per entity.
        """
        planned = 0
        while len(plans) < target and not self._drained:
            inflight = self._plan_one()
            if inflight is None:
                self._drained = True
                break
            plans.append(inflight)
            planned += 1
        return planned

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
        # At lookahead=0 nothing overlaps planning, so a leftover
        # placeholder is a driver bug.
        plan = plan_batch(
            items,
            self.store,
            self._next_timestamp,
            first_position,
            over_placeholders=self.lookahead > 0,
        )
        self._next_timestamp += len(items)
        n_slots = sum(len(ptxn.slots) for ptxn in plan)
        self._next_position += n_slots
        metrics.placeholders_reserved += n_slots
        base = own = dependent = 0
        for ptxn in plan:
            metrics.commit_deps += len(ptxn.deps)
            txn = ptxn.txn
            for binding in ptxn.bindings:
                source_txn = binding.source_txn
                if source_txn == T_INIT:
                    base += 1
                elif source_txn == txn:
                    own += 1
                else:
                    dependent += 1
        metrics.base_reads += base
        metrics.own_reads += own
        metrics.dependent_reads += dependent
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
        self.metrics.blocked_reads += outcome.blocked_reads
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
