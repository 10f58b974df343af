"""The dispatcher: route transactions to shard workers, group-commit them.

:class:`ShardRuntime` is the parallel counterpart of the serial
:class:`~repro.engine.sessions.ConcurrentDriver`.  Where the driver
interleaves sessions over *one* engine, the runtime partitions the
engine itself: each conflict domain (a shard, or the whole store for
non-partitionable schedulers — see :mod:`repro.runtime.shared`) gets its
own :class:`~repro.runtime.worker.ShardWorker` with its own scheduler,
store slice, epoch log and GC, and the dispatcher routes work by the
same crc32 entity hash the sharded store uses.

Execution model
---------------

* **Single-domain transactions** (the common case under shard-local
  workloads) are handed to their worker as one task: the worker runs
  every step, computes write values locally, and reports a *vote* —
  complete-and-held, awaiting group commit — or an abort.

* **Cross-domain transactions** are coordinated by the dispatcher,
  which is the only place that sees the whole read set.  One generator
  per attempt (:meth:`ShardRuntime._run_cross`) states the protocol:
  begin a slice on every involved worker, feed each step to its owning
  worker in transaction order — gathering read values and computing
  every write value itself — then finish every slice.  At each of those
  points it yields the worker futures it waits on, and the dispatcher
  resumes it with their results, one resume per round unless
  ``cross_stride`` says otherwise, so concurrent cross-domain
  transactions genuinely interleave inside the workers — the round-robin
  is the (reproducible) source of contention.  Any shard's rejection aborts the
  transaction's slices everywhere (the first phase of the all-shards-vote
  protocol).

* **Durable commit** is batched through
  :class:`~repro.runtime.group_commit.GroupCommitLog`: voted
  transactions accumulate; a full batch (or an epoch-close request, or
  a starved dispatcher) triggers a flush, which the dispatcher runs as
  vote → decide → apply, as :mod:`repro.runtime.worker` describes.  Only the
  flush decides durability — until then every attempt is commit-held in
  its engine, which is what keeps cross-shard atomicity: no shard can
  commit its slice early and strand the others.

* **Retry** is dispatcher-owned, with the engine's
  :class:`~repro.engine.retry.RetryPolicy` (bounded attempts,
  exponential backoff in dispatcher ticks).

Every task runs on the dispatcher's thread, in a fixed order, so two
same-seed runs produce equal metrics, commits and final state.  The
order in which posted tasks settle is the one thing a
concurrent runtime could vary; :attr:`ShardRuntime.completion_order`
varies it reproducibly (``docs/execution-modes.md``, "Shard runtime").
"""

# repro: deterministic-contract — equal seeds must yield byte-identical output

from __future__ import annotations

import enum
import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from repro.engine.engine import NO_VALUE, OnlineEngine, TxnState
from repro.engine.errors import EngineError, TransactionAborted
from repro.engine.factory import scheduler_factory
from repro.engine.retry import RetryPolicy
from repro.model.steps import Entity, TxnId
from repro.model.transactions import Transaction
from repro.obs.clock import perf_clock
from repro.obs import NULL_TRACER
from repro.storage.executor import Program, write_value
from repro.storage.sharded import ShardedMultiversionStore, shard_of
from repro.runtime.group_commit import GroupCommitLog
from repro.runtime.metrics import RuntimeMetrics
from repro.runtime.shared import plan_domains
from repro.runtime.worker import ShardWorker, WorkerFuture


class TicketState(enum.Enum):
    EXECUTING = "executing"
    #: voted everywhere; sitting in the group-commit batch.
    BATCHED = "batched"
    BACKOFF = "backoff"
    COMMITTED = "committed"
    GAVE_UP = "gave-up"


@dataclass(eq=False)
class TxnTicket:
    """One logical transaction's journey through the runtime."""

    transaction: Transaction
    program: Program | None
    #: logical transaction id — the group-commit key.
    key: TxnId
    #: dispatcher tick of first submission (constant across retries).
    born_tick: int
    #: global order token of the *current* attempt; primes every shard
    #: scheduler so all domains realize one serialization order.
    seq: int = 0
    attempt_no: int = 0
    state: TicketState = TicketState.EXECUTING
    worker_ids: tuple[int, ...] = ()
    #: worker id -> live TxnAttempt of the current attempt.
    attempts: dict = field(default_factory=dict)
    #: the coordinator generator of a cross-domain attempt (None for a
    #: single-domain one, whose worker runs it whole).
    run: object = None
    #: the worker futures the current attempt waits on.
    waiting: list = field(default_factory=list)
    backoff_left: int = 0


class ShardRuntime:
    """Parallel shard execution with epoch-batched group commit."""

    #: The completion order.  ``None`` (the default) runs every task at
    #: ``post``.  Otherwise every worker owes its tasks, and
    #: :meth:`_read_point` calls the order at each dispatcher read point
    #: to run the owed tasks it chooses.  Tests install seeded and
    #: replay orders; no run option reaches it.
    completion_order = None

    def __init__(
        self,
        scheduler="mvto",
        initial: dict[Entity, object] | None = None,
        n_workers: int = 4,
        batch_size: int = 8,
        inflight: int = 8,
        retry: RetryPolicy | None = None,
        seed: int = 0,
        epoch_max_steps: int = 128,
        gc_enabled: bool = True,
        gc_every_commits: int = 32,
        cross_stride: int = 0,
        tracer=NULL_TRACER,
    ) -> None:
        """``cross_stride`` caps coordinator transitions per cross-domain
        transaction per dispatcher round.  0 (the default) advances until
        the transaction blocks on a worker, which keeps cross-domain
        commits short and abort rates low; 1 forces maximal interleaving
        of concurrent cross-domain transactions — the adversarial
        schedule generator the contention tests use."""
        if inflight < 1:
            raise ValueError("inflight must be >= 1")
        if cross_stride < 0:
            raise ValueError("cross_stride must be >= 0")
        factory = (
            scheduler_factory(scheduler)
            if isinstance(scheduler, str)
            else scheduler
        )
        self.plan = plan_domains(factory, n_workers)
        n_domains = self.plan.n_domains
        self.tracer = tracer
        self.store = ShardedMultiversionStore(n_domains, initial)
        self.metrics = RuntimeMetrics(
            n_workers=n_workers,
            effective_domains=n_domains,
            partitionable=self.plan.partitionable,
        )
        self.workers: list[ShardWorker] = []
        for domain in range(n_domains):
            engine = OnlineEngine(
                factory,
                store=self.store.shards[domain],
                gc_enabled=gc_enabled,
                gc_every_commits=gc_every_commits,
                epoch_max_steps=epoch_max_steps,
                hold_commits=True,
                tracer=tracer,
                trace_track=f"shard-{domain}",
            )
            worker = ShardWorker(domain, engine)
            if self.completion_order is not None:
                worker.owed = deque()
            self.workers.append(worker)
        self.n_domains = n_domains
        self.group_commit = GroupCommitLog(
            batch_size, self.metrics.group_commit
        )
        self.retry = retry if retry is not None else RetryPolicy()
        self.rng = random.Random(seed)
        self.inflight_limit = inflight
        self.cross_stride = cross_stride
        self._inflight: list[TxnTicket] = []
        self._seq = itertools.count()
        self._ran = False
        #: owed tasks the completion order ran since the last idle round.
        self._order_ran = 0

    # -- routing -----------------------------------------------------------

    def _domain_of(self, entity: Entity) -> int:
        return shard_of(entity, self.n_domains)

    def final_state(self) -> dict[Entity, object]:
        return self.store.final_state()

    # -- main loop ---------------------------------------------------------

    def run(self, stream) -> RuntimeMetrics:
        """Drain ``stream`` of ``(transaction, program)`` pairs."""
        if self._ran:
            raise EngineError("a ShardRuntime instance is single-use")
        self._ran = True
        started = perf_clock()
        stream = iter(stream)
        exhausted = False
        while True:
            self.metrics.ticks += 1
            progress = 0
            while not exhausted and len(self._inflight) < self.inflight_limit:
                item = next(stream, None)
                if item is None:
                    exhausted = True
                    break
                transaction, program = item
                ticket = TxnTicket(
                    transaction,
                    program,
                    transaction.txn,
                    born_tick=self.metrics.ticks,
                )
                self.metrics.submitted += 1
                if self.tracer.enabled:
                    self.tracer.instant(
                        "txn", "txn.submit", "driver",
                        txn=str(ticket.key),
                    )
                self._inflight.append(ticket)
                self._launch(ticket)
                progress += 1
            progress += self._settle()
            progress += self._maybe_flush(exhausted)
            if exhausted and not self._inflight:
                break
            if not progress:
                self._idle()
        finals = [w.post(w.finalize) for w in self.workers]
        self._await(finals)
        self.metrics.per_worker = [future.result() for future in finals]
        self.metrics.shard_stats = self.store.snapshot_stats()
        self.metrics.elapsed = perf_clock() - started
        return self.metrics

    def _read_point(
        self, point: str, awaited: Sequence[WorkerFuture] = ()
    ) -> None:
        """The dispatcher is about to read its workers' state.

        The read points are ``"settle"`` and ``"advance"`` (before a
        ``done`` read), ``"flush"`` (before the ``wants_epoch_close``
        reads), ``"await"`` and ``"idle"``.  Without a completion order
        every task ran at ``post`` and there is nothing to do; with one,
        ``order(workers, point, awaited)`` runs the owed tasks it
        chooses (``ShardWorker.run_owed``) — at ``"await"`` every
        awaited one, at ``"idle"`` at least one if any is owed.
        """
        order = self.completion_order
        if order is None:
            return
        owed = sum(len(worker.owed) for worker in self.workers)
        order(self.workers, point, awaited)
        self._order_ran += owed - sum(
            len(worker.owed) for worker in self.workers
        )

    def _await(self, futures: Sequence[WorkerFuture]) -> None:
        """Every one of ``futures`` settled, or the run is stuck."""
        self._read_point("await", futures)
        for future in futures:
            if not future.done:
                raise EngineError("runtime made no progress")

    def _idle(self) -> None:
        """A round without progress.

        A backing-off ticket needs only rounds.  So does any ticket
        after the completion order ran an owed task since the last idle
        round: the task may have settled a future after this round read
        it, or an unawaited ``abort_part`` may have doomed a batched
        ticket's live dependency.  Anything else can never progress —
        the flush rule is never met — and is an invariant violation.
        """
        self._read_point("idle")
        ran, self._order_ran = self._order_ran, 0
        if not ran and not any(
            ticket.state is TicketState.BACKOFF for ticket in self._inflight
        ):
            raise EngineError("runtime made no progress")

    # -- launching ---------------------------------------------------------

    def _launch(self, ticket: TxnTicket) -> None:
        ticket.seq = next(self._seq)
        ticket.attempt_no += 1
        ticket.attempts = {}
        ticket.state = TicketState.EXECUTING
        domains = sorted(
            {self._domain_of(s.entity) for s in ticket.transaction.steps}
        )
        ticket.worker_ids = tuple(domains)
        if ticket.attempt_no == 1:
            if len(domains) == 1:
                self.metrics.single_shard += 1
            else:
                self.metrics.cross_shard += 1
        if len(domains) == 1:
            worker = self.workers[domains[0]]
            ticket.run = None
            ticket.waiting = [
                worker.post(lambda w=worker, t=ticket: w.execute(t))
            ]
            return
        ticket.run = self._run_cross(ticket)
        ticket.waiting = next(ticket.run)

    def _run_cross(self, ticket: TxnTicket):
        """Coordinate one cross-domain attempt (see the module doc).

        Yields the worker futures it waits on and is sent their results;
        returns once every slice has finished — the attempt is complete
        and held on every worker — and raises :class:`TransactionAborted`
        on a shard's rejection or the program's own rollback.  The
        dispatcher is the only participant that sees all the
        transaction's reads, so it computes every write value and
        submits it explicitly; each worker only validates and stores its
        own slice.
        """
        steps = ticket.transaction.steps
        counts: dict[int, int] = {}
        for step in steps:
            domain = self._domain_of(step.entity)
            counts[domain] = counts.get(domain, 0) + 1
        yield [
            self.workers[domain].post(
                lambda w=self.workers[domain], n=counts[domain], t=ticket:
                w.begin_part(t, n)
            )
            for domain in ticket.worker_ids
        ]
        reads: list = []
        write_index = 0
        for step in steps:
            domain = self._domain_of(step.entity)
            value = NO_VALUE
            if not step.is_read:
                try:
                    value = write_value(
                        ticket.program, ticket.key, write_index, reads
                    )
                except Exception as exc:
                    # The program rolled itself back (logic abort): the
                    # one abort path aborts every slice.
                    raise TransactionAborted(ticket.key, "logic") from exc
                write_index += 1
            (result,) = yield [
                self.workers[domain].post(
                    lambda e=self.workers[domain].engine,
                    a=ticket.attempts[domain], s=step, v=value:
                    e.submit(a, s, value=v)
                )
            ]
            if step.is_read:
                reads.append(result)
        yield [
            self.workers[domain].post(
                lambda e=self.workers[domain].engine,
                a=ticket.attempts[domain]: e.finish(a)
            )
            for domain in ticket.worker_ids
        ]

    # -- settling ----------------------------------------------------------

    def _vote(self, ticket: TxnTicket) -> None:
        ticket.state = TicketState.BATCHED
        if self.tracer.enabled:
            self.tracer.instant(
                "2pc", "txn.vote", "driver",
                txn=str(ticket.key), shards=len(ticket.worker_ids),
            )
        self.group_commit.add(ticket)

    def _settle(self) -> int:
        progress = 0
        for ticket in list(self._inflight):
            if ticket.state is TicketState.EXECUTING:
                if ticket.run is not None:
                    progress += self._advance(ticket)
                    continue
                self._read_point("settle")
                if ticket.waiting[0].done:
                    outcome, reason = ticket.waiting[0].result()
                    if outcome == "voted":
                        self._vote(ticket)
                    else:
                        self._handle_abort(ticket, reason)
                    progress += 1
            elif ticket.state is TicketState.BACKOFF:
                ticket.backoff_left -= 1
                if ticket.backoff_left <= 0:
                    self._launch(ticket)
                    progress += 1
        return progress

    def _advance(self, ticket: TxnTicket) -> int:
        """Resume a cross-domain coordinator; returns 1 on progress.

        Each resume sends the results of the futures it waits on — one
        protocol transition.  With ``cross_stride == 0`` the dispatcher
        *awaits* those futures, so a started cross-domain transaction
        runs to completion with minimal lifetime.  With a positive
        stride it resumes only once they have settled and stops after
        ``cross_stride`` transitions, maximally interleaving concurrent
        cross-domain transactions — the adversarial (and reproducible)
        contention source the tests use.  An attempt relaunched without
        backoff keeps advancing within the same round.
        """
        transitions = 0
        while ticket.state is TicketState.EXECUTING:
            waiting = ticket.waiting
            if self.cross_stride:
                self._read_point("advance")
                if not all(f.done for f in waiting):
                    break
            self._await(waiting)
            try:
                ticket.waiting = ticket.run.send(
                    [future.result() for future in waiting]
                )
            except StopIteration:
                self._vote(ticket)
            except TransactionAborted as aborted:
                self._handle_abort(ticket, aborted.reason)
            transitions += 1
            if transitions == self.cross_stride:
                break
        return 1 if transitions else 0

    def _handle_abort(
        self, ticket: TxnTicket, reason: str, propagate: bool = True
    ) -> None:
        """Propagate the abort to every slice, then retry or give up.

        Abort tasks are posted (not awaited): per-worker FIFO order
        guarantees they apply before any step of the retry attempt
        reaches the same worker.  Flush losers skip the propagation —
        ``flush_apply`` already aborted their slice on every involved
        worker inside the flush task.
        """
        self.metrics.aborted += 1
        if reason == "logic":
            self.metrics.aborted_logic += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "txn", "txn.abort", "driver",
                txn=str(ticket.key), reason=reason,
            )
        if propagate:
            for domain, attempt in ticket.attempts.items():
                self.workers[domain].post(
                    lambda w=self.workers[domain], a=attempt:
                    w.abort_part(a, "remote-abort")
                )
        if self.retry.exhausted(ticket.attempt_no):
            self.metrics.gave_up += 1
            if self.tracer.enabled:
                self.tracer.instant(
                    "txn", "txn.gave-up", "driver",
                    txn=str(ticket.key), attempts=ticket.attempt_no,
                )
            ticket.state = TicketState.GAVE_UP
            self._inflight.remove(ticket)
            return
        self.metrics.retries += 1
        ticket.backoff_left = self.retry.delay(ticket.attempt_no, self.rng)
        if self.tracer.enabled:
            self.tracer.instant(
                "txn", "txn.retry", "driver",
                txn=str(ticket.key), attempt=ticket.attempt_no,
                backoff=ticket.backoff_left,
            )
        if ticket.backoff_left > 0:
            ticket.state = TicketState.BACKOFF
        else:
            self._launch(ticket)

    # -- group-commit flush ------------------------------------------------

    def _maybe_flush(self, exhausted: bool) -> int:
        if not len(self.group_commit):
            return 0
        self._read_point("flush")
        forced = any(w.wants_epoch_close for w in self.workers)
        starved = all(
            t.state is TicketState.BATCHED for t in self._inflight
        )
        if self.group_commit.full or forced or starved or exhausted:
            return self._flush(
                forced=forced and not self.group_commit.full
            )
        return 0

    def _deps_of(self, ticket: TxnTicket) -> set:
        """Uncommitted logical transactions ``ticket`` read from."""
        deps: set = set()
        for attempt in ticket.attempts.values():
            for dep in attempt.deps:
                if (
                    dep.state is not TxnState.COMMITTED
                    and dep.txn != ticket.key
                ):
                    deps.add(dep.txn)
        return deps

    def _flush(self, forced: bool = False) -> int:
        candidates, dep_map = self.group_commit.plan(self._deps_of)
        if not candidates:
            return 0
        if self.tracer.enabled:
            self.tracer.begin(
                "2pc", "2pc.flush", "driver",
                batch=len(candidates), forced=forced,
            )
        by_worker: dict[int, list[TxnTicket]] = {}
        for ticket in candidates:
            for domain in ticket.worker_ids:
                by_worker.setdefault(domain, []).append(ticket)
        involved = sorted(by_worker)

        ballots = [
            self.workers[domain].post(
                lambda w=self.workers[domain], ts=by_worker[domain]:
                w.flush_votes(ts)
            )
            for domain in involved
        ]
        self._await(ballots)
        try:
            votes: dict = {}
            for ballot in ballots:
                for key, ok in ballot.result().items():
                    votes[key] = votes.get(key, True) and ok
            committed = self.group_commit.commit_closure(votes, dep_map)
        except Exception as error:
            raise EngineError(
                "group-commit flush abandoned: a vote or the decision raised"
            ) from error
        applied = [
            self.workers[domain].post(
                lambda w=self.workers[domain], ts=by_worker[domain],
                c=committed: w.flush_apply(ts, c)
            )
            for domain in involved
        ]
        self._await(applied)
        for future in applied:
            future.result()

        winners = [t for t in candidates if t.key in committed]
        losers = [t for t in candidates if t.key not in committed]
        self.group_commit.settle(winners, losers, forced=forced)
        tracing = self.tracer.enabled
        for ticket in winners:
            ticket.state = TicketState.COMMITTED
            self.metrics.committed += 1
            latency = self.metrics.ticks - ticket.born_tick
            self.metrics.latency.record(latency)
            if tracing:
                self.tracer.instant(
                    "txn", "txn.commit", "driver",
                    txn=str(ticket.key), latency=latency,
                )
            self._inflight.remove(ticket)
        for ticket in losers:
            self._handle_abort(ticket, "flush-abort", propagate=False)
        if tracing:
            self.tracer.end(
                "2pc", "2pc.flush", "driver",
                committed=len(winners), aborted=len(losers),
            )
        return len(candidates)
