"""`RunConfig`: one typed, validated configuration for any backend.

The pre-PR-4 run paths took ``**kwargs`` and silently ignored whatever
did not apply (the serial runner dropped ``batch_size`` and
``deterministic`` on the floor).  ``RunConfig`` inverts that: it is a
frozen dataclass validated *at construction* against the target
backend's declared option set — an option the mode cannot honor is a
``ValueError`` naming the mode and the applicable options, and every
applicable option left unset resolves to the backend's documented
default, so a constructed config is always concrete and printable.

Validation is registry-driven: each :class:`repro.db.backends`
adapter declares ``defaults`` (the options it honors, by key, and what
each resolves to when unset) and ``validate``, so a future backend
plugs its own option contract in without touching this module.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

from repro.engine.retry import RetryPolicy


@dataclass(frozen=True)
class RunConfig:
    """How to run a workload: execution mode plus its tuning knobs.

    ``None`` means "not set": applicable options resolve to the
    backend's default during construction; inapplicable options raise.
    A constructed ``RunConfig`` therefore never carries a silently
    ignored knob.
    """

    #: execution backend, by registry name (``Database.backends()``).
    mode: str = "serial"
    #: scheduler the online modes wrap (planner plans, needs none).
    scheduler: str | None = None
    #: parallelism: driver sessions (serial) / shard workers (parallel)
    #: / store shards (planner family); every mode runs on the caller's
    #: thread.
    workers: int | None = None
    #: group-commit batch (parallel) / planning batch = epoch (planner).
    batch_size: int | None = None
    #: the tick trace clock and no txn/s figure (parallel and the planner
    #: family, all inline whatever the flag); serial is inherently
    #: deterministic.
    deterministic: bool | None = None
    seed: int = 0
    #: abort/retry policy; an ``int`` is shorthand for ``max_attempts``.
    retry: RetryPolicy | int | None = None
    #: version garbage collection (honored by every backend).
    gc: bool = True
    #: collect every N commits (online modes; the planner settles —
    #: and collects — at every batch, so the knob cannot apply).
    gc_every: int | None = None
    #: epoch length of the online modes (the planner's batch *is* its
    #: epoch, so the knob cannot apply).
    epoch_max_steps: int | None = None
    #: batches the pipelined planner may plan ahead of the executing one
    #: (pipelined mode only; the other modes have no planning stage).
    lookahead: int | None = None
    #: structured tracing: a JSONL path to persist the trace to, or a
    #: live :class:`repro.obs.Tracer` to collect in memory (tests).
    #: ``None`` (the default everywhere) runs untraced at no cost.
    trace: Any = None
    #: continuous verification: audit the run's trace online and attach
    #: the :class:`repro.audit.AuditReport` to the ``RunReport``.
    #: Implies tracing: with ``trace`` unset the auditor subscribes to a
    #: tracer that keeps no log; a path gets the complete, unbounded
    #: trace.  Default False everywhere.
    audit: bool | None = None

    def __post_init__(self) -> None:
        from repro.db.backends import get_backend

        backend = get_backend(self.mode)  # unknown mode raises here
        for name in MODE_OPTIONS:
            if getattr(self, name) is None:
                continue
            if name not in backend.defaults:
                raise ValueError(
                    f"option {name!r} does not apply to mode "
                    f"{self.mode!r}; applicable options: "
                    f"{sorted(backend.defaults)}"
                )
        for name, value in backend.defaults.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        if isinstance(self.retry, int) and not isinstance(self.retry, bool):
            object.__setattr__(
                self, "retry", RetryPolicy(max_attempts=self.retry)
            )
        self._check_ranges()
        backend.validate(self)

    def _check_ranges(self) -> None:
        for name in ("deterministic", "gc", "audit"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, bool):
                raise ValueError(f"{name} must be a bool, got {value!r}")
        for name in (
            "workers", "batch_size", "epoch_max_steps", "lookahead", "gc_every"
        ):
            value = getattr(self, name)
            if value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
            floor = 0 if name == "gc_every" else 1
            if value < floor:
                raise ValueError(f"{name} must be >= {floor}, got {value}")
        if self.retry is not None:
            if not isinstance(self.retry, RetryPolicy):
                raise ValueError(
                    f"retry must be a RetryPolicy or an int "
                    f"(max attempts), got {self.retry!r}"
                )
            if self.retry.max_attempts < 1:
                raise ValueError("retry.max_attempts must be >= 1")
        if self.trace is not None:
            from repro.obs import NullTracer, Tracer

            if not isinstance(self.trace, (str, Tracer, NullTracer)):
                raise ValueError(
                    f"trace must be a JSONL path or a repro.obs.Tracer, "
                    f"got {self.trace!r}"
                )

    def as_dict(self) -> dict[str, Any]:
        """JSON-serializable echo of the resolved configuration.

        Field order is the dataclass declaration order — stable, so
        deterministic reports serialize byte-identically.
        """
        out: dict[str, Any] = {}
        for f in fields(self):
            # ``trace``/``audit`` are observability knobs, not execution
            # knobs: they never change what the run computes, so the
            # config echo omits them and reports stay byte-identical
            # traced/audited or not.
            if f.name in ("trace", "audit"):
                continue
            value = getattr(self, f.name)
            if isinstance(value, RetryPolicy):
                value = {
                    "max_attempts": value.max_attempts,
                    "backoff_base": value.backoff_base,
                    "backoff_cap": value.backoff_cap,
                    "jitter": value.jitter,
                }
            out[f.name] = value
        return out


#: the mode-specific option fields, in declaration order (everything
#: except mode/seed/gc, which every backend honors).  A backend honors
#: exactly the ones it lists in its ``defaults``.
MODE_OPTIONS: tuple[str, ...] = tuple(
    f.name for f in fields(RunConfig) if f.name not in ("mode", "seed", "gc")
)
