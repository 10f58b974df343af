"""Shard workers: one conflict domain, one engine, the tasks it owes.

A :class:`ShardWorker` owns everything a conflict domain needs — a
per-domain :class:`~repro.engine.OnlineEngine` (scheduler instance,
version-store slice, epoch log, watermark GC) — and runs the *tasks*
the dispatcher posts to it.  Domain state is mutated only inside a
task, and a task touches only its own domain, so tasks of different
workers commute.  By default ``post`` runs the task before it returns,
which makes the whole runtime a sequential program with a fixed task
order.  A worker may instead *owe* its tasks, queued in posting order
on ``owed``, when the runtime has a completion order
(``ShardRuntime.completion_order``): the order decides at each
dispatcher read point which owed tasks run, so tests can explore every
order in which tasks could settle, reproducibly.

Durable commits are two-phase across workers (the "all shards vote"
protocol), run by the dispatcher: it posts
:meth:`ShardWorker.flush_votes` to every involved worker — is each
candidate's local attempt still alive? — decides the commit closure
over the AND of the ballots, then posts :meth:`ShardWorker.flush_apply`
to the same workers.  No barrier is needed to keep a voted attempt from
being invalidated before its apply: a worker runs tasks only in the
dispatcher's posting order, the dispatcher posts nothing between a
worker's vote and its apply, and cross-domain effects travel only
through the dispatcher.  ``flush_apply`` asserts it: every worker
counts the tasks it runs, and an apply that finds another task ran
since the vote raises :class:`EngineError`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.engine.engine import OnlineEngine, TxnState
from repro.engine.errors import EngineError, TransactionAborted


class WorkerFuture:
    """Single-assignment result slot for one posted task.

    No event and no wait: ``post`` builds the future settled, unless
    the worker owes the task, and then :meth:`ShardWorker.run_owed`
    settles it.  Deliberately not :class:`concurrent.futures.Future`,
    which carries a condition variable and cancellation states that
    nobody here needs.
    """

    __slots__ = ("done", "_value", "_error")

    def __init__(
        self,
        done: bool = False,
        value: Any = None,
        error: BaseException | None = None,
    ) -> None:
        self.done = done
        self._value = value
        self._error = error

    def result(self) -> Any:
        """The task's value; re-raise its exception if it failed.

        Never blocks: asking an unsettled future is a dispatcher bug.
        """
        if not self.done:
            raise EngineError("result of an unsettled worker future")
        if self._error is not None:
            raise self._error
        return self._value


# benchmarks/perf/perf_layers.py still resolves this name; a follow-up
# benchmark-only PR drops that target and this class with it.
class FlushRendezvous:
    """Gone: the dispatcher runs every flush (``ShardRuntime._flush``)."""


class ShardWorker:
    """One conflict domain: its engine and the tasks it owes."""

    def __init__(self, worker_id: int, engine: OnlineEngine) -> None:
        self.worker_id = worker_id
        self.engine = engine
        #: tasks posted but not yet run, oldest first — ``None`` (run at
        #: ``post``) unless the runtime's completion order decides when
        #: tasks run, and then a ``deque``.
        self.owed: deque | None = None
        #: tasks run so far, and the count at the last flush vote.
        self._tasks = 0
        self._voted_at = 0

    # -- task plumbing -----------------------------------------------------

    def post(self, fn: Callable[[], Any]) -> WorkerFuture:
        """Run ``fn`` on this worker now, or owe it.

        Per-worker FIFO order is the runtime's ordering primitive: an
        abort posted before a retry's first step is guaranteed to apply
        first.
        """
        if self.owed is not None:
            future = WorkerFuture()
            self.owed.append((fn, future))
            return future
        self._tasks += 1
        try:
            return WorkerFuture(True, fn())
        except BaseException as error:  # noqa: BLE001 — relayed to caller
            return WorkerFuture(True, error=error)

    def run_owed(self, n: int = 1) -> None:
        """Run the ``n`` oldest owed tasks, settling each future."""
        for _ in range(n):
            fn, future = self.owed.popleft()
            self._tasks += 1
            try:
                future._value = fn()
            except BaseException as error:  # noqa: BLE001 — relayed
                future._error = error
            future.done = True

    # -- transaction execution (all run as tasks on this worker) ----------

    def execute(self, ticket) -> tuple[str, str | None]:
        """Run a single-domain transaction start to finish.

        Returns ``("voted", None)`` when every step was accepted (the
        attempt is complete, held, and awaiting group commit) or
        ``("aborted", reason)`` when the scheduler rejected it or a
        cascade killed it mid-run.
        """
        engine = self.engine
        engine.scheduler.prime_transaction(ticket.key, ticket.seq)
        attempt = engine.begin(
            ticket.key, len(ticket.transaction.steps), ticket.program
        )
        ticket.attempts[self.worker_id] = attempt
        try:
            for step in ticket.transaction.steps:
                engine.submit(attempt, step)
            engine.finish(attempt)
        except TransactionAborted as aborted:
            self.maybe_close_epoch()
            return "aborted", aborted.reason
        return "voted", None

    def begin_part(self, ticket, n_local_steps: int):
        """Open this worker's slice of a cross-shard transaction."""
        self.engine.scheduler.prime_transaction(ticket.key, ticket.seq)
        attempt = self.engine.begin(ticket.key, n_local_steps, None)
        ticket.attempts[self.worker_id] = attempt
        return attempt

    def abort_part(self, attempt, reason: str) -> None:
        """Cross-shard abort propagation (idempotent)."""
        self.engine.abort_attempt(attempt, reason)
        self.maybe_close_epoch()

    # -- group-commit flush ------------------------------------------------

    def flush_votes(self, tickets: list) -> dict:
        """Is each candidate's local attempt still alive (PENDING)?"""
        self._voted_at = self._tasks
        votes = {}
        for ticket in tickets:
            attempt = ticket.attempts[self.worker_id]
            votes[ticket.key] = attempt.state is TxnState.PENDING
        return votes

    def flush_apply(self, tickets: list, committed: set) -> list:
        """Durably commit the decided set; abort the rest; return losers.

        Commits are released together and finalized once, so the engine's
        commit fixpoint orders intra-batch read-from dependencies.  A
        released attempt that fails to commit means the flush plan was
        wrong — that is an engine bug, not a workload condition, and so is
        any task run on this worker between its vote and this apply.
        """
        if self._tasks - self._voted_at > 1:
            raise EngineError(
                f"worker {self.worker_id} ran a task between its flush "
                "vote and its apply"
            )
        winners = [
            t.attempts[self.worker_id] for t in tickets if t.key in committed
        ]
        stragglers = self.engine.release(winners)
        if stragglers:
            raise EngineError(
                "group-commit flush left attempts uncommitted: "
                + ", ".join(repr(a.txn) for a in stragglers)
            )
        losers = []
        for ticket in tickets:
            if ticket.key in committed:
                continue
            self.engine.abort_attempt(
                ticket.attempts[self.worker_id], "flush-abort"
            )
            losers.append(ticket.key)
        self.maybe_close_epoch()
        return losers

    # -- epoch control -----------------------------------------------------

    def maybe_close_epoch(self) -> bool:
        """Close the domain's epoch at a quiescent point, if due.

        Unlike the serial driver, the runtime does not stop admitting
        work at the epoch boundary; the log may overshoot
        ``epoch_max_steps`` until the next flush drains the domain.  The
        dispatcher forces a flush whenever a worker wants its epoch
        closed, so the overshoot is bounded by one batch.
        """
        engine = self.engine
        if engine.wants_epoch_close and engine.quiescent:
            engine.close_epoch()
            engine.scheduler.clear_primes()
            return True
        return False

    def finalize(self) -> dict:
        """End of stream: close the last epoch, return engine metrics."""
        engine = self.engine
        if not engine.quiescent:
            raise EngineError(
                f"worker {self.worker_id} finalized with live attempts"
            )
        engine.close_epoch()
        engine.scheduler.clear_primes()
        return engine.metrics.as_dict()

    @property
    def wants_epoch_close(self) -> bool:
        """Only ever used as a flush hint."""
        return self.engine.wants_epoch_close
