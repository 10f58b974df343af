"""Execution backends: the protocol and the three built-in adapters.

An :class:`ExecutionBackend` is what a concurrency-control execution
model must implement to plug into :class:`repro.db.Database`:

* ``name`` / ``description`` — registry identity, shown by
  ``repro run --list-modes``;
* ``applicable`` / ``defaults`` — the :class:`~repro.db.RunConfig`
  option contract: which mode options the backend honors and what an
  unset applicable option resolves to (``RunConfig`` validates against
  these at construction, so no option is ever silently dropped);
* ``validate(config)`` — extra mode-specific constraints beyond
  applicability;
* ``run(stream, initial, config, ...)`` — execute and return a
  :class:`~repro.db.RunReport`.

The three built-in adapters wrap the serial engine, the shard runtime
and the batch planner; the planner adapter is registered twice
(``planner`` and ``pipelined`` — the same driver, sequential or
``lookahead`` batches deep), which makes four modes.
Engine/runtime/planner imports stay inside ``_execute`` so the registry
is cycle-free (the planner itself reuses
:mod:`repro.runtime.group_commit`).

Extending: subclass :class:`BackendAdapter`, implement ``_execute`` and
``_core``, and :func:`register_backend` an instance — ``Database``,
``RunConfig`` validation, ``repro run --mode`` and the cross-mode
metric-contract test all pick the new mode up from the registry.
``docs/backend-authors.md`` walks the full contract with
:class:`PlannerBackend` as the worked example.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Protocol, runtime_checkable

from repro.db.report import RunReport
from repro.engine.retry import RetryPolicy

#: shared default for the retrying modes (RetryPolicy is frozen).
_DEFAULT_RETRY = RetryPolicy()

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.config import RunConfig


@runtime_checkable
class ExecutionBackend(Protocol):
    """What an execution mode must expose to plug into the Database."""

    name: str
    description: str
    applicable: frozenset[str]
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

    Subclasses implement ``_execute`` (run, return ``(native_metrics,
    final_state)``) and ``_core`` (map native counters onto the
    guaranteed schema); this base turns both into the uniform ``run``.
    """

    name: str = ""
    description: str = ""
    applicable: frozenset[str] = frozenset()
    defaults: Mapping[str, Any] = {}

    def validate(self, config: "RunConfig") -> None:
        return None

    def _execute(self, stream, initial, config: "RunConfig"):
        """Return ``(metrics, final_state)`` or ``(metrics,
        final_state, notes)`` — backends are registry singletons, so
        per-run data must travel in the return value, never on
        ``self``."""
        raise NotImplementedError

    def _core(self, metrics) -> dict[str, int]:
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
        auditor = live = trace_path = None
        exec_config = config
        if getattr(config, "audit", False):
            # Continuous verification: run through a live tracer with an
            # auditor subscribed, so every epoch is certified as it
            # closes.  ``_execute`` signatures stay untouched — the
            # tracer travels through the existing ``trace`` option
            # (``trace_run`` yields a passed Tracer verbatim), and a
            # ``trace`` path is persisted here instead.
            from dataclasses import replace

            from repro.audit import Auditor
            from repro.obs import Tracer

            if isinstance(config.trace, Tracer):
                live = config.trace
            else:
                if isinstance(config.trace, str):
                    trace_path = config.trace
                live = Tracer(capacity=None)  # unbounded: drops void audits
            exec_config = replace(config, trace=live)
            auditor = Auditor.attach(live)
        metrics, final_state, *rest = self._execute(
            stream, initial, exec_config
        )
        notes = rest[0] if rest else ()
        audit_report = None
        if auditor is not None:
            from repro.obs import write_jsonl

            live.unsubscribe(auditor.feed)
            if trace_path is not None:
                write_jsonl(live, trace_path)
            audit_report = auditor.finish(dropped=live.log.dropped)
        return RunReport(
            mode=self.name,
            scenario=scenario,
            config=config,
            deterministic=bool(config.deterministic),
            elapsed=metrics.elapsed,
            latency=metrics.latency,
            invariant_ok=(
                bool(invariant(final_state)) if invariant else True
            ),
            invariant_checked=invariant is not None,
            mode_specific=metrics.as_dict(),
            notes=notes,
            metrics=metrics,
            final_state=final_state,
            audit=audit_report,
            **self._core(metrics),
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
    applicable = frozenset({
        "scheduler", "workers", "deterministic", "retry",
        "gc_every", "epoch_max_steps", "trace", "audit",
    })
    defaults = {
        "scheduler": "mvto",
        "workers": 4,
        "deterministic": True,
        "retry": _DEFAULT_RETRY,
        "gc_every": 32,
        "epoch_max_steps": 256,
        "audit": False,
    }

    def validate(self, config: "RunConfig") -> None:
        if config.deterministic is False:
            raise ValueError(
                "mode 'serial' is single-threaded and seeded — every "
                "run is deterministic; deterministic=False cannot be "
                "honored (omit it or pass True)"
            )

    def _execute(self, stream, initial, config: "RunConfig"):
        from repro.engine import (
            ConcurrentDriver,
            OnlineEngine,
            scheduler_factory,
        )
        from repro.obs import trace_run

        with trace_run(config) as tracer:
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

    def _core(self, metrics) -> dict[str, int]:
        # Every engine abort is a concurrency-control abort (rejected
        # step, deadlock break, cascade, external request).
        return {
            "submitted": metrics.committed + metrics.gave_up,
            "committed": metrics.committed,
            "aborted": metrics.aborted_total,
            "gave_up": metrics.gave_up,
            "cc_aborts": metrics.aborted_total,
        }


class ShardRuntimeBackend(BackendAdapter):
    """PR 2's parallel shard runtime: per-shard workers, cross-shard
    2PC, epoch-batched group commit.  Honors every mode option."""

    name = "parallel"
    description = (
        "shard runtime: per-shard workers, cross-shard 2PC, "
        "epoch-batched group commit"
    )
    applicable = frozenset({
        "scheduler", "workers", "batch_size", "deterministic",
        "retry", "gc_every", "epoch_max_steps", "trace", "audit",
    })
    defaults = {
        "scheduler": "mvto",
        "workers": 4,
        "batch_size": 8,
        "deterministic": False,
        "retry": _DEFAULT_RETRY,
        "gc_every": 32,
        "epoch_max_steps": 128,
        "audit": False,
    }

    def _execute(self, stream, initial, config: "RunConfig"):
        from repro.obs import trace_run
        from repro.runtime.dispatch import ShardRuntime

        with trace_run(config) as tracer:
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

    def _core(self, metrics) -> dict[str, int]:
        # Runtime aborts are attempt-level CC events: rejected steps,
        # cross-shard vote-no and flush aborts.
        return {
            "submitted": metrics.submitted,
            "committed": metrics.committed,
            "aborted": metrics.aborted,
            "gave_up": metrics.gave_up,
            "cc_aborts": metrics.aborted,
        }


class PlannerBackend(BackendAdapter):
    """The plan-then-execute driver (:mod:`repro.planner.driver`),
    registered twice: ``planner`` runs its stages strictly in sequence
    (``lookahead`` does not apply — it is 0), ``pipelined`` plans
    ``lookahead >= 1`` batches ahead of the one executing.

    Same plan, same settle rule and the same zero-CC-abort guarantee in
    both; deterministic runs serialize byte-identically for equal seeds.
    ``scheduler``/``retry``/``epoch_max_steps``/``gc_every`` cannot
    apply: the plan needs no run-time scheduler, nothing retries
    (nothing CC-aborts), the batch *is* the epoch, and GC runs at every
    batch settle.  ``docs/backend-authors.md`` walks this class as its
    worked example.
    """

    def __init__(
        self, name: str, description: str, lookahead: int | None = None
    ) -> None:
        self.name = name
        self.description = description
        self.applicable = frozenset({
            "workers", "batch_size", "deterministic", "reexecute",
            "trace", "audit",
        })
        self.defaults = {
            "workers": 4,
            "batch_size": 64,
            "deterministic": False,
            "reexecute": True,
            "audit": False,
        }
        if lookahead is not None:
            self.applicable |= {"lookahead"}
            self.defaults["lookahead"] = lookahead

    def _execute(self, stream, initial, config: "RunConfig"):
        from repro.obs import trace_run
        from repro.planner.driver import BatchPlanner

        with trace_run(config) as tracer:
            planner = BatchPlanner(
                initial=initial,
                n_workers=config.workers,
                batch_size=config.batch_size,
                lookahead=config.lookahead or 0,
                deterministic=config.deterministic,
                gc_enabled=config.gc,
                reexecute=config.reexecute,
                tracer=tracer,
            )
            return planner.run(stream), planner.final_state()

    def _core(self, metrics) -> dict[str, int]:
        # The only aborts left are logic aborts and their planned
        # cascades; nothing retries, so nothing can give up.
        return {
            "submitted": metrics.submitted,
            "committed": metrics.committed,
            "aborted": metrics.logic_aborted + metrics.cascade_aborted,
            "gave_up": 0,
            "cc_aborts": metrics.cc_aborts,
        }


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
