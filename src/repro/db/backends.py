"""Execution backends: the protocol and the three built-in adapters.

An :class:`ExecutionBackend` is what a concurrency-control execution
model must implement to plug into :class:`repro.db.Database`: a
``name``/``description`` (registry identity, shown by ``repro run
--list-modes``), ``validate``/``run``, and ``defaults`` — the
:class:`~repro.db.RunConfig` option contract, declared once: the
backend honors exactly the mode options listed there, and an unset one
resolves to the listed value (``RunConfig`` validates against it at
construction, so no option is ever silently dropped).

The three built-in adapters wrap the serial engine, the shard runtime
and the batch planner (registered twice — see :class:`PlannerBackend` —
which makes four modes).  Engine/runtime/planner imports stay inside
``_execute`` so the registry is cycle-free (the planner itself reuses
:mod:`repro.runtime.group_commit`).

Extending: subclass :class:`BackendAdapter` and :func:`register_backend`
an instance — ``Database``, ``RunConfig`` validation, ``repro run
--mode`` and the cross-mode metric-contract test all pick the new mode
up from the registry.  ``docs/backend-authors.md`` walks the full
contract with :class:`PlannerBackend` as the worked example.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Protocol, runtime_checkable

from repro.db.report import RunReport
from repro.engine.retry import RetryPolicy
from repro.obs import trace_run

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.config import RunConfig


@runtime_checkable
class ExecutionBackend(Protocol):
    """What an execution mode must expose to plug into the Database."""

    name: str
    description: str
    defaults: Mapping[str, Any]

    def validate(self, config: "RunConfig") -> None:
        """Raise ``ValueError`` for mode-specific constraint violations."""

    def run(
        self,
        stream,
        initial,
        config: "RunConfig",
        *,
        scenario: str = "<stream>",
        invariant=None,
    ) -> RunReport:
        """Drain ``stream`` against ``initial`` state; report."""


class BackendAdapter:
    """Shared :class:`RunReport` assembly for the built-in adapters.

    Subclasses declare ``defaults`` and implement ``_execute``; this
    base resolves the tracer, reads the guaranteed counters off the
    native metrics object by name and assembles the uniform ``run``.
    """

    name: str = ""
    description: str = ""
    defaults: Mapping[str, Any] = {}

    def validate(self, config: "RunConfig") -> None:
        return None

    def _execute(self, stream, initial, config: "RunConfig", tracer):
        """Return ``(metrics, final_state)`` or ``(metrics,
        final_state, notes)`` — backends are registry singletons, so
        per-run data must travel in the return value, never on
        ``self``.  ``metrics`` carries ``submitted``/``committed``/
        ``aborted``/``gave_up``/``cc_aborts``, ``elapsed``, ``latency``
        and ``as_dict()``; emit through ``tracer``."""
        raise NotImplementedError

    def run(
        self,
        stream,
        initial,
        config: "RunConfig",
        *,
        scenario: str = "<stream>",
        invariant=None,
    ) -> RunReport:
        if config.mode != self.name:
            raise ValueError(
                f"config is for mode {config.mode!r}, "
                f"backend is {self.name!r}"
            )
        auditor = audit_report = None
        with trace_run(config) as tracer:
            if config.audit:
                # Continuous verification: an auditor subscribed to the
                # live tracer certifies every epoch as it closes.
                from repro.audit import Auditor

                auditor = Auditor.attach(tracer)
            metrics, final_state, *rest = self._execute(
                stream, initial, config, tracer
            )
        notes = rest[0] if rest else ()
        if auditor is not None:
            tracer.unsubscribe(auditor.feed)
            # The subscriber saw every event, whatever the log kept.
            audit_report = auditor.finish()
        return RunReport(
            mode=self.name,
            scenario=scenario,
            config=config,
            deterministic=bool(config.deterministic),
            elapsed=metrics.elapsed,
            latency=metrics.latency,
            invariant_ok=invariant is None or bool(invariant(final_state)),
            invariant_checked=invariant is not None,
            mode_specific=metrics.as_dict(),
            notes=notes,
            metrics=metrics,
            final_state=final_state,
            audit=audit_report,
            submitted=metrics.submitted,
            committed=metrics.committed,
            aborted=metrics.aborted,
            gave_up=metrics.gave_up,
            cc_aborts=metrics.cc_aborts,
        )


class SerialEngineBackend(BackendAdapter):
    """PR 1's online engine under the concurrent driver.

    ``workers`` maps to driver sessions.  The driver is single-threaded
    and seeded, so every serial run is deterministic —
    ``deterministic`` defaults to True and False is a contradiction,
    not a silent drop.  ``batch_size`` cannot apply (no group commit).
    """

    name = "serial"
    description = (
        "online engine: abort/retry with backoff over one conflict "
        "domain (inherently deterministic)"
    )
    defaults = {
        "scheduler": "mvto",
        "workers": 4,
        "deterministic": True,
        "retry": RetryPolicy(),
        "gc_every": 32,
        "epoch_max_steps": 256,
        "trace": None,
        "audit": False,
    }

    def validate(self, config: "RunConfig") -> None:
        if config.deterministic is False:
            raise ValueError(
                "mode 'serial' is single-threaded and seeded — every "
                "run is deterministic; deterministic=False cannot be "
                "honored (omit it or pass True)"
            )

    def _execute(self, stream, initial, config: "RunConfig", tracer):
        from repro.engine import (
            ConcurrentDriver, OnlineEngine, scheduler_factory,
        )

        engine = OnlineEngine(
            scheduler_factory(config.scheduler),
            initial=initial,
            gc_enabled=config.gc,
            gc_every_commits=config.gc_every,
            epoch_max_steps=config.epoch_max_steps,
            tracer=tracer,
        )
        driver = ConcurrentDriver(
            engine,
            stream,
            n_sessions=config.workers,
            retry=config.retry,
            seed=config.seed,
        )
        return driver.run(), engine.store.final_state()


class ShardRuntimeBackend(BackendAdapter):
    """PR 2's parallel shard runtime (:mod:`repro.runtime.dispatch`).

    Per-shard workers and the dispatcher run on the caller's thread, in
    one fixed task order; equal seeds give equal runs.
    ``deterministic`` selects only the trace clock and whether the
    report prints txn/s.
    """

    name = "parallel"
    description = (
        "shard runtime: per-shard workers, cross-shard 2PC, "
        "epoch-batched group commit"
    )
    defaults = {
        "scheduler": "mvto",
        "workers": 4,
        "batch_size": 8,
        "deterministic": False,
        "retry": RetryPolicy(),
        "gc_every": 32,
        "epoch_max_steps": 128,
        "trace": None,
        "audit": False,
    }

    def _execute(self, stream, initial, config: "RunConfig", tracer):
        from repro.runtime.dispatch import ShardRuntime

        runtime = ShardRuntime(
            config.scheduler,
            initial=initial,
            n_workers=config.workers,
            batch_size=config.batch_size,
            # E16's measured operating point; not a RunConfig knob —
            # it tunes dispatcher admission, not the execution model.
            inflight=16,
            deterministic=config.deterministic,
            retry=config.retry,
            seed=config.seed,
            gc_enabled=config.gc,
            gc_every_commits=config.gc_every,
            epoch_max_steps=config.epoch_max_steps,
            tracer=tracer,
        )
        metrics = runtime.run(stream)
        return metrics, runtime.final_state(), (runtime.plan.note,)


class PlannerBackend(BackendAdapter):
    """The plan-then-execute driver (:mod:`repro.planner.driver`),
    registered twice: ``planner`` runs its stages strictly in sequence
    (``lookahead`` does not apply — it is 0), ``pipelined`` plans
    ``lookahead >= 1`` batches ahead of the one executing.

    Same plan, same settle rule and the same zero-CC-abort guarantee in
    both, run on the caller's thread; deterministic runs serialize
    byte-identically for equal seeds.  ``workers`` is the number of
    store shards; ``deterministic`` selects only the trace clock and
    whether the report prints txn/s.
    ``scheduler``/``retry``/``epoch_max_steps``/``gc_every`` cannot
    apply: the plan needs no run-time scheduler, nothing retries
    (nothing CC-aborts), the batch *is* the epoch, and GC runs at every
    batch settle.
    """

    def __init__(
        self, name: str, description: str, lookahead: int | None = None
    ) -> None:
        self.name = name
        self.description = description
        self.defaults = {
            "workers": 4,
            "batch_size": 64,
            "deterministic": False,
            "trace": None,
            "audit": False,
        }
        if lookahead is not None:
            self.defaults["lookahead"] = lookahead

    def _execute(self, stream, initial, config: "RunConfig", tracer):
        from repro.planner.driver import BatchPlanner

        planner = BatchPlanner(
            initial=initial,
            n_workers=config.workers,
            batch_size=config.batch_size,
            lookahead=config.lookahead or 0,
            deterministic=config.deterministic,
            gc_enabled=config.gc,
            tracer=tracer,
        )
        return planner.run(stream), planner.final_state()


_REGISTRY: dict[str, ExecutionBackend] = {}


def register_backend(backend: ExecutionBackend, *, replace: bool = False):
    """Register ``backend`` under ``backend.name``.

    ``Database``, ``RunConfig`` validation and the CLI all resolve
    modes through this registry, so registration is the whole plug-in
    step for a new execution model.
    """
    if not backend.name:
        raise ValueError("backend must have a non-empty name")
    if backend.name in _REGISTRY and not replace:
        raise ValueError(
            f"backend {backend.name!r} already registered "
            f"(pass replace=True to override)"
        )
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> ExecutionBackend:
    """The backend registered as ``name``; unknown names list choices."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown execution mode {name!r}; one of {sorted(_REGISTRY)}"
        ) from None


def backend_names() -> tuple[str, ...]:
    """Registered mode names, in registration order."""
    return tuple(_REGISTRY)


register_backend(SerialEngineBackend())
register_backend(ShardRuntimeBackend())
register_backend(PlannerBackend(
    "planner",
    "abort-free batch planner: plan-then-execute with placeholder "
    "versions, zero CC aborts by construction",
))
register_backend(PlannerBackend(
    "pipelined",
    "pipelined batch planner: plans batch k+1 while batch k "
    "executes (lookahead-deep), zero CC aborts by construction",
    lookahead=1,
))
