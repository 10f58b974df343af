"""Planner observability, built around the engine's metrics objects.

The planner deliberately *reuses* :class:`repro.engine.EngineMetrics`
(and with it :class:`LatencyStats`/:class:`GCStats`) for everything the
two execution models share — attempts, commits, steps, epochs (batches),
latency in ticks, GC retention — so E-benchmarks can put planner and
engine columns side by side without unit conversion.  The reuse is also
the zero-abort witness: the planner never touches the engine's abort
counters, so ``engine.aborted_total`` (surfaced here as ``cc_aborts``)
staying at zero is a *recorded measurement*, not a definition.

Planner-specific counters (plan shape, commit dependencies, re-bound
reads, logic aborts) live on top.  ``as_dict`` and ``report`` exclude
wall-clock fields, so two same-seed runs serialize byte-identically —
the same reproducibility contract as the runtime.
"""

# repro: deterministic-contract — equal seeds must yield byte-identical output

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.metrics import EngineMetrics
from repro.obs.registry import FieldTable


@dataclass
class PlannerMetrics:
    """Everything the batch planner counts while draining a stream."""

    #: configuration (fixed at construction).
    n_workers: int = 0
    batch_size: int = 0

    #: shared execution counters, in engine units (see module docstring).
    engine: EngineMetrics = field(default_factory=EngineMetrics)

    #: plan shape: write slots reserved; reads bound to a base version,
    #: an own earlier write, or another transaction's slot.
    placeholders_reserved: int = 0
    base_reads: int = 0
    own_reads: int = 0
    dependent_reads: int = 0
    #: distinct reader→writer commit-dependency edges: a reader binding
    #: several reads to one writer counts once here (``dependent_reads``
    #: carries the per-read count).
    commit_deps: int = 0
    #: the one abort planning cannot remove: programs that raised (their
    #: readers re-bind past them and run on).
    logic_aborted: int = 0
    #: reads that found their source writer logic-aborted and re-bound
    #: down the chain during execution.  Published as the
    #: ``planner.rebound_reads`` counter and on the report's logic-aborts
    #: line, not as an ``as_dict`` key.
    rebound_reads: int = 0

    @property
    def submitted(self) -> int:
        return self.engine.attempts

    @property
    def committed(self) -> int:
        return self.engine.committed

    @property
    def batches(self) -> int:
        return self.engine.epochs_closed

    @property
    def cc_aborts(self) -> int:
        """Concurrency-control aborts — zero by construction; the engine
        abort counters exist so the claim is measured, not assumed."""
        return self.engine.aborted_total

    @property
    def aborted(self) -> int:
        """The only aborts left are logic aborts."""
        return self.logic_aborted

    #: nothing retries, so nothing can give up.
    gave_up = 0

    @property
    def commit_rate(self) -> float:
        return self.committed / self.submitted if self.submitted else 0.0

    @property
    def latency(self):
        return self.engine.latency

    @property
    def ticks(self) -> int:
        return self.engine.ticks

    @property
    def elapsed(self) -> float:
        return self.engine.elapsed

    def as_dict(self) -> dict:
        return {**_FIELDS.as_dict(self), "engine": self.engine.as_dict()}

    def register_into(self, registry) -> None:
        """Publish into a :class:`repro.obs.MetricsRegistry`.

        ``planner.*`` names on top of the shared ``engine.*`` set (the
        reused engine metrics register themselves, so the zero-abort
        witness — ``engine.aborted.*`` all zero — rides along).
        Wall-clock fields stay out, so equal-seed telemetry is
        byte-identical.
        """
        self.engine.register_into(registry)
        _FIELDS.register_into(self, registry)

    def report(self) -> str:
        """A human-readable block for the CLI."""
        engine = self.engine
        lines = [
            f"workers       {self.n_workers}  (batch {self.batch_size})",
            f"submitted     {self.submitted}",
            f"committed     {self.committed}  "
            f"(rate {self.commit_rate:.3f})",
            f"cc aborts     {self.cc_aborts}  (abort-free by construction)",
            f"logic aborts  {self.logic_aborted}  "
            f"({self.rebound_reads} reads re-bound past them)",
            f"reads         {self.base_reads} base, {self.own_reads} own, "
            f"{self.dependent_reads} dependent "
            f"({self.commit_deps} commit deps)",
            f"batches       {self.batches}  "
            f"({self.placeholders_reserved} slots reserved)",
            f"latency       {engine.latency.summary()}",
            f"versions      {engine.final_versions} live, "
            f"peak {engine.gc.peak_versions}, "
            f"pruned {engine.gc.versions_pruned} "
            f"in {engine.gc.collections} collections",
            f"ticks         {engine.ticks}",
        ]
        return "\n".join(lines)


_FIELDS = FieldTable(
    "planner",
    ("n_workers", "workers", None, None),
    ("batch_size", "batch_size", None, None),
    ("submitted", "submitted", "submitted", "counter"),
    ("committed", "committed", "committed", "counter"),
    ("cc_aborts", "cc_aborts", "cc_aborts", "counter"),
    ("logic_aborted", "logic_aborted", "logic_aborted", "counter"),
    ("batches", "batches", "batches", "counter"),
    ("placeholders_reserved", "placeholders", "placeholders", "counter"),
    ("base_reads", "base_reads", "reads.base", "counter"),
    ("own_reads", "own_reads", "reads.own", "counter"),
    ("dependent_reads", "dependent_reads", "reads.dependent", "counter"),
    ("commit_deps", "commit_deps", "commit_deps", "counter"),
    ("rebound_reads", None, "rebound_reads", "counter"),
)
