"""`RunReport`: the one result type every execution backend returns.

Before PR 4 each run path returned its native metrics object and the
E-benchmarks compared them by duck typing.  ``RunReport`` pins the
cross-mode surface as a contract: :data:`GUARANTEED_SCHEMA` names the
keys (and their types) that ``as_dict()`` yields for *every* backend, in
a stable order, with each backend's extra counters preserved verbatim
under ``mode_specific``.

Reproducibility rule: wall-clock numbers live only in the
``throughput``/``elapsed`` attributes.  ``as_dict()`` reports
``throughput`` as ``0.0`` for deterministic runs, and ``report()``
prints no txn/s line for them, so two same-seed deterministic runs
serialize and print byte-identically.  The native metrics objects hold
no wall-clock figure in either, so this is the one place the flag is
decided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.db.config import RunConfig
from repro.engine.metrics import LatencyStats

#: the cross-mode ``as_dict()`` contract: every registered backend
#: produces exactly these keys, in this order, with these types.
GUARANTEED_SCHEMA: tuple[tuple[str, type], ...] = (
    ("mode", str),
    ("scenario", str),
    ("deterministic", bool),
    ("submitted", int),
    ("committed", int),
    ("aborted", int),
    ("gave_up", int),
    ("cc_aborts", int),
    ("throughput", float),
    ("latency", dict),
    ("invariant_ok", bool),
    ("config", dict),
    ("mode_specific", dict),
)


@dataclass(frozen=True)
class RunReport:
    """What a :class:`repro.db.Database` run measured.

    The guaranteed counters are attributes (and ``as_dict()`` keys);
    the backend's native metrics object rides along as ``metrics`` for
    drill-down, and the final store state as ``final_state`` for
    invariant checks — both deliberately outside ``as_dict()``.
    """

    mode: str
    scenario: str
    config: RunConfig
    #: logical transactions drained from the stream.
    submitted: int
    #: durably committed / aborted for any reason / dropped after
    #: exhausting the retry budget.
    committed: int
    aborted: int
    gave_up: int
    #: concurrency-control aborts only (the planner's is 0 by
    #: construction — and measured, not assumed).
    cc_aborts: int
    deterministic: bool
    #: wall-clock seconds (not part of the byte-stable dict).
    elapsed: float
    #: per-transaction commit latency in logical ticks.
    latency: LatencyStats
    invariant_ok: bool
    #: False when the scenario declared no ``invariant_holds`` oracle —
    #: ``invariant_ok`` is then vacuously True and the human report
    #: says "unchecked" instead of claiming a verification that never
    #: ran.
    invariant_checked: bool
    #: the backend's full native counters, verbatim.
    mode_specific: Mapping[str, Any]
    #: presentation-only annotations (e.g. the shard plan note).
    notes: tuple[str, ...] = ()
    #: the backend's native metrics object, for drill-down.
    metrics: Any = field(default=None, repr=False, compare=False)
    #: final store state, for invariant checks and inspection.
    final_state: Mapping[str, Any] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: the continuous-verification verdict (``config.audit=True``):
    #: a :class:`repro.audit.AuditReport`, else None.  Outside
    #: ``as_dict()`` — the guaranteed schema stays frozen; the CLI's
    #: ``--json`` attaches it under its own key.
    audit: Any = field(default=None, repr=False, compare=False)

    @property
    def throughput(self) -> float:
        """Committed transactions per wall-clock second."""
        return self.committed / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def commit_rate(self) -> float:
        return self.committed / self.submitted if self.submitted else 0.0

    def as_dict(self) -> dict[str, Any]:
        """The guaranteed cross-mode dict (see :data:`GUARANTEED_SCHEMA`).

        Stable key order; ``throughput`` is 0.0 for deterministic runs
        so equal-seed deterministic reports are byte-identical.
        """
        return {
            "mode": self.mode,
            "scenario": self.scenario,
            "deterministic": self.deterministic,
            "submitted": self.submitted,
            "committed": self.committed,
            "aborted": self.aborted,
            "gave_up": self.gave_up,
            "cc_aborts": self.cc_aborts,
            "throughput": (
                0.0 if self.deterministic else round(self.throughput, 3)
            ),
            "latency": self.latency.as_dict(),
            "invariant_ok": self.invariant_ok,
            "config": self.config.as_dict(),
            "mode_specific": dict(self.mode_specific),
        }

    def telemetry(self) -> dict[str, Any]:
        """The uniform counters/gauges/histograms view (see
        :mod:`repro.obs`).

        A separate surface from :meth:`as_dict` on purpose: the
        guaranteed schema stays frozen while the telemetry view grows
        with the instrumentation.  Backends whose native metrics object
        implements ``register_into(registry)`` populate it; anything
        else yields the empty view.  An audited run adds the auditor's
        ``audit.*`` instruments.
        """
        from repro.obs import telemetry_view

        return telemetry_view(self.metrics, self.audit)

    def report(self) -> str:
        """A human-readable block for the CLI: one header line naming
        the scenario/backend/knobs, the backend's native report, the
        wall-clock txn/s unless the run is deterministic, then the
        invariant verdict."""
        cfg = self.config
        bits = [f"{self.submitted} txns"]
        if cfg.scheduler is not None:
            bits.append(cfg.scheduler)
        if cfg.workers is not None:
            bits.append(f"{cfg.workers} workers")
        if cfg.batch_size is not None:
            bits.append(f"batch {cfg.batch_size}")
        if self.deterministic:
            bits.append("deterministic")
        lines = [
            f"== {self.scenario} via {self.mode} backend "
            f"({', '.join(bits)}) =="
        ]
        lines.extend(f"[{note}]" for note in self.notes)
        native = self.metrics.report() if self.metrics is not None else ""
        if native:
            lines.append(native)
        if not self.deterministic:
            # The one wall-clock line; a deterministic report is
            # byte-identical for equal seeds.
            lines.append(f"throughput    {self.throughput:.0f} txn/s "
                         "(wall clock)")
        if not self.invariant_checked:
            verdict = "unchecked (scenario declares no oracle)"
        else:
            verdict = "ok" if self.invariant_ok else "VIOLATED"
        lines.append(f"invariant     {verdict}")
        if self.audit is not None:
            audit = self.audit
            lines.append(
                "audit         certified 1-serializable "
                f"({audit.certified} segment(s): {audit.tiers_line()})"
                if audit.ok
                else "audit         VIOLATED "
                f"({len(audit.violations)} violation(s))"
            )
        return "\n".join(lines)
