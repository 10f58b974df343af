"""Online transaction engine: open-ended streams over paper schedulers.

The paper's schedulers are *testers*: one rejected step kills the whole
schedule (:class:`repro.storage.txn_manager.TransactionManager` reproduces
exactly that).  Real systems instead abort the offending transaction and
retry it.  This engine wraps any :class:`~repro.schedulers.base.Scheduler`
with precisely that semantics, following the batched multiversion
execution design of Faleiro & Abadi (epochs as quiescent batch boundaries)
and watermark-based version retention (:mod:`repro.engine.gc`).

Mechanics
---------

* **Epochs.**  The scheduler sees one growing schedule per *epoch* (the
  engine's step log).  When the log's live steps (tombstones are not
  counted) reach ``epoch_max_steps`` the engine
  asks the driver to stop admitting new transactions; once in-flight ones
  drain, the epoch closes: scheduler reset, log cleared, GC run.  Epochs
  bound scheduler state, version retention and the log suffix an abort
  walks.

* **Abort by retraction.**  Schedulers have no abort operation —
  rejection kills them — but they are on-line testers: their state, and
  every version they assigned, is a function of the accepted prefix
  alone.  So the engine removes the aborted transaction's versions from
  the store and hands the scheduler its log positions:
  :meth:`~Scheduler.retract` leaves it as if it had accepted only the
  surviving log, which also revives it.  A retracted step keeps its
  position as a tombstone — its entry stays in the log, its attempt
  ``ABORTED`` — until the epoch closes, so no survivor is renumbered,
  in the log or in the scheduler.  Every engine scheduler decides first
  and drops the doomed transactions in place — versions, timestamps,
  graph nodes and arcs, locks, snapshots — and re-decides nobody, so
  one retraction per abort suffices; a ``retract`` that rejects a
  survivor raises :class:`EngineError`.
  Every reader of a doomed version is in the doomed set already (the
  cascade follows ``readers``), so each survivor keeps the version it
  was served; a survivor found reading a removed version is a
  bookkeeping bug and raises.  Committed
  transactions may never be touched by this — the commit rule below
  makes that an invariant, and the engine raises :class:`EngineError`
  rather than silently revoking a commit.

* **Commit dependencies.**  A transaction that finished all its steps is
  only *durably* committed once every transaction it read from has
  committed; until then it is ``PENDING``.  This is classic recoverability:
  it confines cascades to uncommitted transactions.  Cyclic waits among
  pending transactions (possible because schedulers admit dirty reads) are
  broken by aborting the youngest member (``break_pending_cycle``).
"""

# repro: deterministic-contract — equal seeds must yield byte-identical output

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.model.schedules import T_INIT
from repro.model.steps import Entity, Op, Step, TxnId
from repro.model.transactions import Transaction
from repro.model.version_functions import Source
from repro.schedulers.base import Scheduler
from repro.storage.executor import Program, write_value
from repro.storage.mvstore import MultiversionStore, Version, VersionStore
from repro.engine.errors import EngineError, TransactionAborted
from repro.engine.gc import WatermarkGC
from repro.engine.metrics import EngineMetrics
from repro.obs import NULL_TRACER

#: Builds a scheduler given the engine's live lengths dict (the engine
#: registers each transaction's step count there at begin time).
SchedulerFactory = Callable[[dict[TxnId, int]], Scheduler]


class TxnState(enum.Enum):
    ACTIVE = "active"
    PENDING = "pending"  # all steps accepted, waiting on read sources
    COMMITTED = "committed"
    ABORTED = "aborted"


#: sentinel: "no explicit write value supplied" for :meth:`OnlineEngine.submit`.
NO_VALUE = object()

# Module-level aliases: the per-step path reads them without an
# attribute lookup on the enum class.
_ACTIVE, _COMMITTED, _ABORTED = (
    TxnState.ACTIVE, TxnState.COMMITTED, TxnState.ABORTED
)
_READ = Op.READ


@dataclass(eq=False, slots=True)
class TxnAttempt:
    """One attempt at running a logical transaction through the engine."""

    txn: TxnId
    n_steps: int
    program: Program | None
    #: global begin sequence — "age" for youngest-victim deadlock breaks.
    seq: int
    state: TxnState = TxnState.ACTIVE
    #: while True, the attempt may become PENDING-complete but is never
    #: durably committed — the parallel runtime's group-commit flush
    #: releases the hold (:meth:`OnlineEngine.release`).
    hold: bool = False
    #: tick the *logical* transaction first entered the system (first
    #: attempt, before any retry); commit records latency against it.
    born_tick: int | None = None
    #: values read so far, in read order (program input).
    reads: list = field(default_factory=list)
    write_index: int = 0
    steps_done: int = 0
    #: uncommitted attempts this one read from / that read from this one.
    deps: set["TxnAttempt"] = field(default_factory=set)
    readers: set["TxnAttempt"] = field(default_factory=set)
    #: versions this attempt installed.
    versions: list[Version] = field(default_factory=list)
    #: epoch-log index of its first accepted step; None until a step is
    #: accepted.  Log positions never move.
    first: int | None = None
    abort_reason: str | None = None
    #: traced runs only: each accepted step's data op, in step order —
    #: ``(entity, pos)`` per write, ``(entity, pos, writer)`` per read —
    #: which the commit record carries (``docs/observability.md``).
    ops: list | None = None

    @property
    def done_submitting(self) -> bool:
        return self.steps_done >= self.n_steps


@dataclass(eq=False, slots=True)
class _LogEntry:
    """One accepted step: its position is its index in the engine log.

    A retracted step's entry stays, a tombstone: its attempt is
    ``ABORTED``.
    """

    step: Step
    attempt: TxnAttempt
    #: for writes: the installed version.
    version: Version | None = None
    #: for reads: the version served.
    read_version: Version | None = None


class OnlineEngine:
    """Abort/retry execution of transaction streams over one scheduler."""

    def __init__(
        self,
        scheduler_factory: SchedulerFactory,
        store: VersionStore | None = None,
        initial: dict[Entity, Any] | None = None,
        gc_enabled: bool = True,
        gc_every_commits: int = 32,
        epoch_max_steps: int = 256,
        hold_commits: bool = False,
        tracer=NULL_TRACER,
        trace_track: str = "engine",
    ) -> None:
        if epoch_max_steps < 1:
            raise ValueError("epoch_max_steps must be >= 1")
        #: trace sink for lifecycle events; every hook is guarded by
        #: ``tracer.enabled`` so the default costs one attribute check.
        self.tracer = tracer
        #: trace lane (the shard runtime runs one engine per domain and
        #: names each lane ``shard-<domain>``).
        self.trace_track = trace_track
        #: when True, every attempt begins held: completion makes it
        #: PENDING but only :meth:`release` can durably commit it (the
        #: parallel runtime's group-commit discipline).
        self.hold_commits = hold_commits
        self._lengths: dict[TxnId, int] = {}
        self.scheduler = scheduler_factory(self._lengths)
        self.store: VersionStore = (
            store if store is not None else MultiversionStore(initial)
        )
        self.metrics = EngineMetrics()
        self.gc = (
            WatermarkGC(self.store, tracer=tracer, trace_track=trace_track)
            if gc_enabled
            else None
        )
        if self.gc is not None:
            self.metrics.gc = self.gc.stats
        self.gc_every_commits = gc_every_commits
        self.epoch_max_steps = epoch_max_steps

        self.log: list[_LogEntry] = []
        #: tombstones in the log: entries of attempts aborted this epoch.
        self._retracted = 0
        #: attempts currently ACTIVE or PENDING.
        self._live: set[TxnAttempt] = set()
        self._pending: set[TxnAttempt] = set()
        #: global install-position counter (monotonic across epochs).
        self._gpos = itertools.count()
        self._epoch_start_gpos = 0
        #: entity -> its base version at epoch start (captured at first
        #: touch; every version older than a base is GC-prunable).
        self._base: dict[Entity, Version] = {}
        self._seq = itertools.count()
        self._commits_since_gc = 0

    # -- client protocol ---------------------------------------------------

    def begin(
        self,
        txn: TxnId,
        n_steps: int,
        program: Program | None = None,
        born_tick: int | None = None,
    ) -> TxnAttempt:
        """Open a new attempt at logical transaction ``txn``.

        ``born_tick`` is the tick the logical transaction first entered
        the system (constant across retries); when given, durable commit
        records ``metrics.ticks - born_tick`` as the commit latency.
        """
        self._lengths[txn] = n_steps
        attempt = TxnAttempt(
            txn,
            n_steps,
            program,
            next(self._seq),
            hold=self.hold_commits,
            born_tick=born_tick,
            ops=[] if self.tracer.enabled else None,
        )
        self._live.add(attempt)
        self.metrics.attempts += 1
        return attempt

    def submit(
        self, attempt: TxnAttempt, step: Step, value: Any = NO_VALUE
    ) -> Any:
        """Feed one step; return the read value (reads) or written value.

        For writes, ``value`` overrides the attempt's program/Herbrand
        computation — the parallel runtime computes cross-shard write
        values at the dispatcher (which sees all the transaction's reads)
        and submits them explicitly, since a shard only sees its own
        slice of the read set.

        Raises :class:`TransactionAborted` if the attempt is already dead
        (cascade/deadlock break between ticks) or the scheduler rejects
        the step — in both cases the caller must retry via a new attempt.
        """
        if attempt.state is not _ACTIVE:
            if attempt.state is _ABORTED:
                raise TransactionAborted(
                    attempt.txn, attempt.abort_reason or "aborted"
                )
            raise EngineError(
                f"submit on {attempt.state.value} attempt of {attempt.txn!r}"
            )
        if step.txn != attempt.txn:
            raise EngineError(f"step {step} does not belong to {attempt.txn!r}")
        entity = step.entity
        base = self._base
        if entity not in base:
            # Base must be captured before the entity gains epoch-local
            # versions; "latest at first touch" is exactly the committed
            # state at epoch start.
            base[entity] = self.store.latest(entity)
        log, metrics, scheduler = self.log, self.metrics, self.scheduler
        position = len(log)
        metrics.steps_submitted += 1
        if not scheduler.submit(step):
            metrics.steps_rejected += 1
            self._abort_cascade(attempt, "rejected", step)
            raise TransactionAborted(attempt.txn, "rejected")
        entry = _LogEntry(step, attempt)
        log.append(entry)
        if attempt.first is None:
            attempt.first = position
        attempt.steps_done += 1
        if step.op is _READ:
            version, owner = self._resolve_source(
                scheduler.source_of_read(position), entity
            )
            entry.read_version = version
            attempt.reads.append(version.value)
            if attempt.ops is not None:
                # The reads-from edge, as served: (entity, pos) names
                # the exact version (positions are globally unique per
                # track), ``writer`` the transaction that installed it —
                # T0 for pre-trace initial versions.  A survivor of an
                # abort keeps the version it was served, so this is
                # final once the attempt commits.
                attempt.ops.append((
                    entity, version.position,
                    T_INIT if version.position is None
                    else str(version.writer),
                ))
            if (
                owner is not None
                and owner is not attempt
                and owner.state is not _COMMITTED
            ):
                attempt.deps.add(owner)
                owner.readers.add(attempt)
            return version.value
        if value is NO_VALUE:
            try:
                value = write_value(
                    attempt.program, attempt.txn, attempt.write_index,
                    attempt.reads,
                )
            except Exception as exc:
                # A raising program is a *logic* abort — the
                # transaction's own decision to roll back (insufficient
                # funds, injected failure), not a concurrency-control
                # rejection.  Abort the attempt like any other root so
                # readers cascade and the log stays consistent.
                self._abort_cascade(attempt, "logic")
                raise TransactionAborted(attempt.txn, "logic") from exc
        attempt.write_index += 1
        version = self.store.install(
            entity, attempt.txn, value, next(self._gpos)
        )
        entry.version = version
        attempt.versions.append(version)
        if attempt.ops is not None:
            attempt.ops.append((entity, version.position))
        return value

    def finish(self, attempt: TxnAttempt) -> TxnState:
        """All steps submitted: move to PENDING and commit what's ready."""
        if attempt.state is TxnState.ABORTED:
            raise TransactionAborted(
                attempt.txn, attempt.abort_reason or "aborted"
            )
        if attempt.state is not TxnState.ACTIVE:
            raise EngineError(
                f"finish on {attempt.state.value} attempt of {attempt.txn!r}"
            )
        if not attempt.done_submitting:
            raise EngineError(
                f"finish with {attempt.steps_done}/{attempt.n_steps} steps "
                f"of {attempt.txn!r}"
            )
        attempt.state = TxnState.PENDING
        self._pending.add(attempt)
        # Readiness moves only on a commit, a release or an abort, each
        # of which finalizes: a held attempt commits nobody by finishing.
        if not attempt.hold:
            self._finalize_ready()
        return attempt.state

    def run_transaction(
        self, transaction: Transaction, program: Program | None = None
    ) -> TxnAttempt:
        """Convenience: begin, submit every step, finish (no retries)."""
        attempt = self.begin(
            transaction.txn, len(transaction.steps), program
        )
        for step in transaction.steps:
            self.submit(attempt, step)
        self.finish(attempt)
        return attempt

    # -- epoch control -----------------------------------------------------

    @property
    def wants_epoch_close(self) -> bool:
        """True when the log is full: admit no new transactions, drain.
        Tombstones do not count, so aborts do not move epoch bounds."""
        return len(self.log) - self._retracted >= self.epoch_max_steps

    @property
    def quiescent(self) -> bool:
        return not self._live

    def close_epoch(self) -> None:
        """Quiescent point: reset the scheduler, clear the log, run GC."""
        if self._live:
            raise EngineError(
                f"close_epoch with {len(self._live)} transactions in flight"
            )
        if self.tracer.enabled:
            self.tracer.instant(
                "epoch", "epoch.close", self.trace_track,
                epoch=self.metrics.epochs_closed,
                steps=len(self.log) - self._retracted,
            )
        self.scheduler.reset()
        self.log.clear()
        self._retracted = 0
        self._base.clear()
        self._lengths.clear()
        self._epoch_start_gpos = next(self._gpos)
        self.metrics.epochs_closed += 1
        self.metrics.gc.peak_versions = max(
            self.metrics.gc.peak_versions, self.store.version_count()
        )
        if self.gc is not None:
            self.gc.collect(self._epoch_start_gpos)
        self.metrics.final_versions = self.store.version_count()

    def run_gc(self) -> int:
        """Collect now, behind the current epoch's watermark."""
        if self.gc is None:
            return 0
        pruned = self.gc.collect(self._epoch_start_gpos)
        self.metrics.final_versions = self.store.version_count()
        return pruned

    # -- runtime protocol --------------------------------------------------

    def release(self, attempts: Iterable[TxnAttempt]) -> list[TxnAttempt]:
        """Clear commit holds and finalize; return attempts left unredeemed.

        The parallel runtime's group-commit flush releases a whole batch
        at once; releasing first and finalizing once lets the commit
        fixpoint order intra-batch read-from dependencies.  An attempt
        that stays uncommitted after the fixpoint (a dependency outside
        the released set is still pending) is returned — the flush
        planner guarantees the list is empty, so callers treat a
        non-empty result as a bug.
        """
        attempts = list(attempts)
        for attempt in attempts:
            attempt.hold = False
        self._finalize_ready()
        return [
            a for a in attempts if a.state is not TxnState.COMMITTED
        ]

    def abort_attempt(
        self, attempt: TxnAttempt, reason: str = "external"
    ) -> None:
        """Abort a live attempt from outside the engine (idempotent).

        The parallel runtime uses this for cross-shard coordination: when
        one shard votes no, the transaction's attempts on every other
        shard are aborted through here.  Aborting an already-aborted
        attempt is a no-op; aborting a committed one is an engine error
        (commits are durable).
        """
        if attempt.state is TxnState.ABORTED:
            return
        if attempt.state is TxnState.COMMITTED:
            raise EngineError(
                f"abort_attempt on committed transaction {attempt.txn!r}"
            )
        self._abort_cascade(attempt, reason)

    def break_pending_cycle(self) -> TxnAttempt:
        """Deadlock break: abort the youngest pending attempt.

        Called by the driver when every in-flight transaction is pending —
        which means the commit-dependency graph has a cycle (dirty reads
        in both directions).  Aborting the youngest frees the others.
        """
        if not self._pending:
            raise EngineError("break_pending_cycle with no pending attempts")
        victim = max(self._pending, key=lambda a: a.seq)
        self._abort_cascade(victim, "deadlock")
        return victim

    # -- abort machinery ---------------------------------------------------

    def _resolve_source(
        self, source: Source, entity: Entity
    ) -> tuple[Version, TxnAttempt | None]:
        """Map a scheduler-committed source to (version, owning attempt).

        The one read rule: ``T_INIT`` is the entity's base version at
        epoch start, anything else the epoch log position of the
        sourcing write — never a tombstone.
        """
        if source == T_INIT:
            return self._base[entity], None
        entry = self.log[source]
        if entry.version is None or entry.attempt.state is _ABORTED:
            raise EngineError(
                f"read sourced from position {source}, not a live write"
            )
        return entry.version, entry.attempt

    def _abort_cascade(
        self, root: TxnAttempt, reason: str, rejected: Step | None = None
    ) -> None:
        """Abort ``root`` plus every uncommitted reader; retract them.

        One :meth:`Scheduler.retract` drops the doomed steps.  Every
        engine scheduler retracts in place and rejects no survivor; one
        that does (a re-submitting reference can) raises rather than
        revoke a survivor's decision.  ``rejected`` is the
        step the scheduler refused, when that is why ``root`` aborts.
        """
        removed = self._doom(root, reason, rejected)
        self.metrics.replays += 1
        refused = self.scheduler.retract(removed)
        if refused is not None:
            raise EngineError(
                f"{self.scheduler.name}: retract rejected the surviving "
                f"step at log position {refused}"
            )
        self._finalize_ready()

    def _doom(
        self, root: TxnAttempt, reason: str, rejected: Step | None
    ) -> list[int]:
        """Mark the cascade closure of ``root`` aborted; strip its traces.

        Returns the log positions of its steps, in order.  Their entries
        stay in the log, tombstones; nothing moves.
        """
        doomed: set[TxnAttempt] = set()
        stack = [root]
        while stack:
            attempt = stack.pop()
            if attempt in doomed or attempt.state is TxnState.ABORTED:
                continue
            if attempt.state is TxnState.COMMITTED:
                raise EngineError(
                    f"abort cascade reached committed transaction "
                    f"{attempt.txn!r}"
                )
            doomed.add(attempt)
            stack.extend(attempt.readers)
        cut = len(self.log)
        lost: set[int] = set()
        # Oldest-first: per-attempt work is order-independent, but the
        # trace events are not — set order varies across processes.
        for attempt in sorted(doomed, key=lambda a: a.seq):
            attempt.state = TxnState.ABORTED
            if attempt.first is not None and attempt.first < cut:
                cut = attempt.first
            attempt.abort_reason = reason if attempt is root else "cascade"
            if self.tracer.enabled:
                # What the attempt installed (a committed read of it is
                # ``read-from-aborted``), and why it went: the root of a
                # cascade, the refused step of a rejected root.
                if attempt is not root:
                    why = {"root": str(root.txn), "root_seq": root.seq}
                elif rejected is not None:
                    why = {"entity": rejected.entity, "op": rejected.op.value}
                else:
                    why = {}
                # repro: lint-ignore[O303] keys literal in each branch above
                self.tracer.instant(
                    "txn", "txn.abort", self.trace_track,
                    txn=str(attempt.txn), seq=attempt.seq,
                    reason=attempt.abort_reason,
                    installed=[v.position for v in attempt.versions],
                    **why,
                )
            if attempt is root:
                if reason == "rejected":
                    self.metrics.aborted_rejected += 1
                elif reason == "deadlock":
                    self.metrics.aborted_deadlock += 1
                elif reason == "logic":
                    self.metrics.aborted_logic += 1
                elif reason in ("external", "remote-abort", "flush-abort"):
                    self.metrics.aborted_external += 1
                else:
                    self.metrics.aborted_cascade += 1
            else:
                self.metrics.aborted_cascade += 1
            for version in attempt.versions:
                self.store.remove(version)
                lost.add(id(version))
            for dep in attempt.deps:
                dep.readers.discard(attempt)
            attempt.deps.clear()
            attempt.readers.clear()
        self._live -= doomed
        self._pending -= doomed
        removed = []
        for position, entry in enumerate(self.log[cut:], cut):
            attempt = entry.attempt
            if attempt in doomed:
                removed.append(position)
            elif (
                lost and id(entry.read_version) in lost
                # An older tombstone may have read it; a survivor not.
                and attempt.state is not _ABORTED
            ):
                # The readers closure dooms every reader of a doomed
                # version: a survivor here is a bookkeeping bug.
                raise EngineError(
                    f"abort left {attempt.state.value} transaction "
                    f"{attempt.txn!r} reading a removed version"
                )
        self._retracted += len(removed)
        return removed

    # -- commit machinery --------------------------------------------------

    def _finalize_ready(self) -> None:
        """Durably commit every pending attempt whose sources committed."""
        if not self._pending:
            return
        # Oldest-first for a deterministic commit (and trace) order; the
        # fixpoint itself is order-insensitive.  Commits only leave the
        # pending set, so one sort serves every pass.
        waiting = [
            attempt
            for attempt in sorted(self._pending, key=lambda a: a.seq)
            if not attempt.hold
        ]
        progress = True
        while progress:
            progress = False
            for attempt in waiting:
                if attempt.state is not _COMMITTED and all(
                    dep.state is _COMMITTED for dep in attempt.deps
                ):
                    self._commit(attempt)
                    progress = True

    def _commit(self, attempt: TxnAttempt) -> None:
        attempt.state = TxnState.COMMITTED
        self._pending.discard(attempt)
        self._live.discard(attempt)
        self.metrics.committed += 1
        latency = None
        if attempt.born_tick is not None:
            latency = self.metrics.ticks - attempt.born_tick
            self.metrics.latency.record(latency)
        if self.tracer.enabled:
            # The one record of the attempt's data: an aborted attempt
            # leaves none, so the trace holds committed steps only.
            # repro: lint-ignore[O303] keys literal in both ** branches
            self.tracer.instant(
                "txn", "txn.commit", self.trace_track,
                txn=str(attempt.txn), seq=attempt.seq, ops=attempt.ops,
                **({} if latency is None else {"latency": latency}),
            )
        self._commits_since_gc += 1
        if (
            self.gc is not None
            and self.gc_every_commits
            and self._commits_since_gc >= self.gc_every_commits
        ):
            self._commits_since_gc = 0
            self.run_gc()
