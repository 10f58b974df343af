"""Sessions and the concurrent driver.

A :class:`Session` is one client connection: it runs one transaction at a
time, step by step, and owns the retry loop — when its attempt aborts it
backs off (in driver ticks) and re-begins a fresh attempt, up to the
retry policy's budget.

The :class:`ConcurrentDriver` multiplexes N sessions over one engine the
way an event loop multiplexes connections over a server: each round it
ticks every busy session once in a seeded-random order (the interleaving
is adversarial but reproducible), feeds idle sessions from the transaction
stream, honors the engine's epoch-close requests, and breaks commit
deadlocks when every session is blocked.
"""

from __future__ import annotations

import enum
import random
from typing import Iterable, Iterator

from repro.model.transactions import Transaction
from repro.storage.executor import Program
from repro.engine.engine import OnlineEngine, TxnState
from repro.engine.errors import EngineError, TransactionAborted
from repro.engine.metrics import EngineMetrics
from repro.engine.retry import RetryPolicy
from repro.obs.clock import perf_clock


class SessionState(enum.Enum):
    IDLE = "idle"
    RUNNING = "running"
    BACKOFF = "backoff"
    #: all steps submitted; waiting for commit dependencies.
    WAITING = "waiting"


# Module-level aliases: a tick reads them without an attribute lookup on
# the enum class.
_IDLE, _RUNNING, _BACKOFF, _WAITING = (
    SessionState.IDLE, SessionState.RUNNING, SessionState.BACKOFF,
    SessionState.WAITING,
)
_COMMITTED, _ABORTED = TxnState.COMMITTED, TxnState.ABORTED


class Session:
    """One client: runs transactions through the engine with retries."""

    def __init__(
        self,
        engine: OnlineEngine,
        session_id: int,
        retry: RetryPolicy,
        rng: random.Random,
    ) -> None:
        self.engine = engine
        self.session_id = session_id
        self.retry = retry
        self.rng = rng
        self.state = _IDLE
        self.transaction: Transaction | None = None
        self.program: Program | None = None
        self.attempt = None
        self.attempt_no = 0
        self.step_index = 0
        self.backoff_left = 0
        #: tick the current logical transaction entered the system; kept
        #: across retries so commit latency spans backoffs and re-runs.
        self.born_tick = 0
        #: logical transactions this session committed / dropped.
        self.committed: list = []
        self.gave_up: list = []

    @property
    def busy(self) -> bool:
        return self.state is not _IDLE

    def start(self, transaction: Transaction, program: Program | None) -> None:
        if self.busy:
            raise EngineError(f"session {self.session_id} is busy")
        self.transaction = transaction
        self.program = program
        self.attempt_no = 0
        self.born_tick = self.engine.metrics.ticks
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.instant(
                "txn", "txn.submit", self.engine.trace_track,
                txn=str(transaction.txn), session=self.session_id,
            )
        self._begin_attempt()

    def _begin_attempt(self) -> None:
        self.attempt_no += 1
        self.attempt = self.engine.begin(
            self.transaction.txn,
            len(self.transaction.steps),
            self.program,
            born_tick=self.born_tick,
        )
        self.step_index = 0
        self.state = _RUNNING

    def tick(self) -> str:
        """Advance one turn; returns what happened (driver diagnostics):

        ``"idle"``, ``"backoff"``, ``"progress"``, ``"committed"``,
        ``"waiting"``, ``"blocked"``, ``"retry"``, or ``"gave-up"``.
        Only ``"blocked"`` means no state changed at all.
        """
        state = self.state
        if state is _IDLE:
            return "idle"
        if state is _BACKOFF:
            self.backoff_left -= 1
            if self.backoff_left <= 0:
                self._begin_attempt()
            return "backoff"
        attempt = self.attempt
        # Cascades and deadlock breaks abort attempts between ticks.
        if attempt.state is _ABORTED:
            return self._handle_abort()
        if state is _RUNNING:
            engine = self.engine
            steps = self.transaction.steps
            try:
                engine.submit(attempt, steps[self.step_index])
            except TransactionAborted:
                return self._handle_abort()
            self.step_index += 1
            if self.step_index < len(steps):
                return "progress"
            engine.finish(attempt)
            if attempt.state is _COMMITTED:
                return self._settle_commit()
            self.state = _WAITING
            tracer = engine.tracer
            if tracer.enabled:
                # Parked: all steps in, blocked on commit dependencies.
                tracer.instant(
                    "txn", "txn.park", engine.trace_track,
                    txn=str(self.transaction.txn),
                )
            return "waiting"
        # WAITING: poll the attempt's fate.
        if attempt.state is _COMMITTED:
            return self._settle_commit()
        return "blocked"

    def _settle_commit(self) -> str:
        self.committed.append(self.transaction.txn)
        self._reset_to_idle()
        return "committed"

    def _handle_abort(self) -> str:
        tracer = self.engine.tracer
        if self.retry.exhausted(self.attempt_no):
            self.gave_up.append(self.transaction.txn)
            self.engine.metrics.gave_up += 1
            if tracer.enabled:
                tracer.instant(
                    "txn", "txn.gave-up", self.engine.trace_track,
                    txn=str(self.transaction.txn),
                    attempts=self.attempt_no,
                )
            self._reset_to_idle()
            return "gave-up"
        self.engine.metrics.retries += 1
        self.backoff_left = self.retry.delay(self.attempt_no, self.rng)
        if tracer.enabled:
            tracer.instant(
                "txn", "txn.retry", self.engine.trace_track,
                txn=str(self.transaction.txn),
                attempt=self.attempt_no, backoff=self.backoff_left,
            )
        if self.backoff_left > 0:
            self.state = _BACKOFF
        else:
            self._begin_attempt()
        return "retry"

    def _reset_to_idle(self) -> None:
        self.state = _IDLE
        self.transaction = None
        self.program = None
        self.attempt = None
        self.step_index = 0
        self.backoff_left = 0


class ConcurrentDriver:
    """Interleave a transaction stream across N sessions of one engine."""

    def __init__(
        self,
        engine: OnlineEngine,
        stream: Iterable[tuple[Transaction, Program | None]],
        n_sessions: int = 4,
        retry: RetryPolicy | None = None,
        seed: int = 0,
    ) -> None:
        if n_sessions < 1:
            raise ValueError("n_sessions must be >= 1")
        self.engine = engine
        self.stream: Iterator = iter(stream)
        self.rng = random.Random(seed)
        retry = retry or RetryPolicy()
        self.sessions = [
            Session(engine, k, retry, self.rng) for k in range(n_sessions)
        ]
        self._exhausted = False

    def _next_transaction(self):
        try:
            return next(self.stream)
        except StopIteration:
            self._exhausted = True
            return None

    def _feed_idle_sessions(self) -> None:
        if self._exhausted or self.engine.wants_epoch_close:
            return
        for session in self.sessions:
            if session.state is not _IDLE:
                continue
            item = self._next_transaction()
            if item is None:
                return
            transaction, program = item
            session.start(transaction, program)

    def run(self) -> EngineMetrics:
        """Drain the stream; returns the engine's metrics."""
        engine = self.engine
        started = perf_clock()
        metrics, sessions = engine.metrics, self.sessions
        shuffle = self.rng.shuffle
        while True:
            metrics.ticks += 1
            self._feed_idle_sessions()
            busy = [s for s in sessions if s.state is not _IDLE]
            if not busy:
                if engine.wants_epoch_close:
                    engine.close_epoch()
                    continue
                if self._exhausted:
                    break
                continue  # next round feeds the idle sessions
            shuffle(busy)
            blocked = True
            for session in busy:
                if session.tick() != "blocked":
                    blocked = False
            if blocked:
                # Every in-flight transaction is pending on another pending
                # one: a commit-dependency cycle.  Break it; the victims'
                # sessions observe the abort on their next tick.
                engine.break_pending_cycle()
        if not engine.quiescent:
            raise EngineError("driver finished with transactions in flight")
        engine.close_epoch()
        engine.metrics.elapsed = perf_clock() - started
        engine.metrics.final_versions = engine.store.version_count()
        return engine.metrics
