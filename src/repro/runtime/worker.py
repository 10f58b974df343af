"""Shard workers: one conflict domain, one thread, one inbox.

A :class:`ShardWorker` owns everything a conflict domain needs — a
per-domain :class:`~repro.engine.OnlineEngine` (scheduler instance,
version-store slice, epoch log, watermark GC) — and executes *tasks*
posted by the dispatcher.  One rule guards all of it: every task runs
holding ``worker.lock`` (the domain's store lock), and domain state is
mutated only inside a task — a cross-thread observer takes the same
lock, as the dispatcher's ``_deps_of`` does.  Threaded mode drains the
inbox FIFO on a dedicated thread; deterministic mode has no thread and
``post`` runs the task inline under the same lock, which makes the
whole runtime a sequential program with a fixed task order — the
reproducible fallback the tests pin behaviour with.

Durable commits are two-phase across workers (the "all shards vote"
protocol), run by the dispatcher in both modes: it posts
:meth:`ShardWorker.flush_votes` to every involved worker — is each
candidate's local attempt still alive? — decides the commit closure
over the AND of the ballots, then posts :meth:`ShardWorker.flush_apply`
to the same workers.  No barrier is needed to keep a voted attempt from
being invalidated before its apply: a worker takes tasks only from the
dispatcher's FIFO inbox, the dispatcher posts nothing between a
worker's vote and its apply, and cross-domain effects travel only
through the dispatcher.  ``flush_apply`` asserts it: every worker
counts the tasks it runs, and an apply that finds another task ran
since the vote raises :class:`EngineError`.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable

from repro.engine.engine import OnlineEngine, TxnState
from repro.engine.errors import EngineError, TransactionAborted

_STOP = object()


class WorkerFuture:
    """Single-assignment result slot for one posted task.

    Deliberately not :class:`concurrent.futures.Future`: the stdlib
    class is built for executors (set_result outside one requires the
    set_running_or_notify_cancel dance, and cancellation states leak
    into every consumer) and its only timed wait, ``result(timeout)``,
    communicates by raising — the dispatcher polls futures every round
    and needs a non-raising ``wait``/``done``.
    """

    __slots__ = ("_event", "_value", "_error")

    def __init__(self) -> None:
        #: None on a future that was built settled (:meth:`settled`):
        #: nobody can ever wait on it, so it carries no event.
        self._event: threading.Event | None = threading.Event()
        self._value: Any = None
        self._error: BaseException | None = None

    @classmethod
    def settled(
        cls, value: Any = None, error: BaseException | None = None
    ) -> "WorkerFuture":
        """A future whose task already ran (the inline ``post``)."""
        future = cls.__new__(cls)
        future._event = None
        future._value = value
        future._error = error
        return future

    def resolve(self, value: Any) -> None:
        self._value = value
        self._event.set()

    def reject(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    @property
    def done(self) -> bool:
        return self._event is None or self._event.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        return self._event is None or self._event.wait(timeout)

    def result(self) -> Any:
        """Block until settled; re-raise the task's exception if it failed."""
        if self._event is not None:
            self._event.wait()
        if self._error is not None:
            raise self._error
        return self._value


# benchmarks/perf/perf_layers.py still resolves this name; a follow-up
# benchmark-only PR drops that target and this class with it.
class FlushRendezvous:
    """Gone: the dispatcher runs every flush (``ShardRuntime._flush``)."""


class ShardWorker:
    """One conflict domain: engine + inbox (+ thread, unless deterministic)."""

    def __init__(
        self,
        worker_id: int,
        engine: OnlineEngine,
        lock: Any = None,
        deterministic: bool = False,
    ) -> None:
        self.worker_id = worker_id
        self.engine = engine
        #: context manager guarding the domain's store slice; held for
        #: the duration of every task (see repro.storage.sharded).
        self.lock = lock if lock is not None else threading.RLock()
        self.deterministic = deterministic
        self._inbox: queue.Queue | None = None
        self._thread: threading.Thread | None = None
        #: tasks run so far, and the count at the last flush vote.
        self._tasks = 0
        self._voted_at = 0

    # -- task plumbing -----------------------------------------------------

    def start(self) -> None:
        if self.deterministic or self._thread is not None:
            return
        self._inbox = queue.Queue()
        self._thread = threading.Thread(
            target=self._loop, name=f"shard-worker-{self.worker_id}",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._inbox.put(_STOP)
        self._thread.join()
        self._thread = None
        self._inbox = None

    def post(self, fn: Callable[[], Any]) -> WorkerFuture:
        """Schedule ``fn`` on this worker; inline when deterministic.

        Per-worker FIFO order is the runtime's ordering primitive: an
        abort posted before a retry's first step is guaranteed to apply
        first.
        """
        if self._thread is None:
            self._tasks += 1
            # Resolved before anyone holds it: no event to allocate.
            try:
                with self.lock:
                    return WorkerFuture.settled(fn())
            except BaseException as error:  # noqa: BLE001 — relayed to caller
                return WorkerFuture.settled(error=error)
        future = WorkerFuture()
        self._inbox.put((fn, future))
        return future

    def _loop(self) -> None:
        while True:
            item = self._inbox.get()
            if item is _STOP:
                return
            fn, future = item
            self._tasks += 1
            try:
                with self.lock:
                    future.resolve(fn())
            except BaseException as error:  # noqa: BLE001 — relayed to caller
                future.reject(error)

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
        """Racy cross-thread read; only ever used as a flush hint."""
        return self.engine.wants_epoch_close
