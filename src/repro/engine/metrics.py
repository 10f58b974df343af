"""Engine observability: commit/abort/retry counters and a report."""

# repro: deterministic-contract — equal seeds must yield byte-identical output

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.gc import GCStats
from repro.obs.registry import FieldTable
from repro.obs.stats import percentile, summarize_samples


@dataclass
class LatencyStats:
    """Per-transaction commit latency, in driver ticks.

    A sample is recorded per *logical* transaction at durable commit:
    ticks elapsed from the first submit of its first attempt (retries
    included) to the commit.  Ticks, not wall-clock, so deterministic
    runs report byte-identical latency.
    """

    samples: list[int] = field(default_factory=list)

    def record(self, ticks: int) -> None:
        self.samples.append(ticks)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def min(self) -> int:
        return min(self.samples) if self.samples else 0

    @property
    def max(self) -> int:
        return max(self.samples) if self.samples else 0

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else 0.0

    @property
    def p50(self) -> int:
        """Median (nearest-rank, shared :func:`repro.obs.percentile`)."""
        return percentile(self.samples, 0.50) if self.samples else 0

    @property
    def p95(self) -> int:
        """95th percentile (nearest-rank, same shared rule)."""
        return percentile(self.samples, 0.95) if self.samples else 0

    @property
    def p99(self) -> int:
        """99th percentile (nearest-rank, same shared rule)."""
        return percentile(self.samples, 0.99) if self.samples else 0

    def as_dict(self) -> dict:
        # The one histogram shape every telemetry surface serializes to.
        return summarize_samples(self.samples)

    def summary(self) -> str:
        if not self.samples:
            return "no samples"
        return (
            f"min {self.min}, p50 {self.p50}, mean {self.mean:.1f}, "
            f"p95 {self.p95}, p99 {self.p99}, max {self.max} ticks"
        )


@dataclass
class EngineMetrics:
    """Everything the engine counts while processing a stream."""

    #: transaction attempts begun / durably committed.
    attempts: int = 0
    committed: int = 0
    #: abort roots by cause; cascaded counts attempts dragged down by a
    #: root abort (a dirty read from it, or a step the scheduler rejected
    #: when the survivors were re-submitted).
    aborted_rejected: int = 0
    aborted_deadlock: int = 0
    aborted_cascade: int = 0
    #: abort roots whose own program raised — the transaction's
    #: voluntary rollback, not a concurrency-control rejection.
    aborted_logic: int = 0
    #: abort roots requested from outside the engine (the parallel
    #: runtime's cross-shard vote-no / flush-abort path).
    aborted_external: int = 0
    #: session-level retries actually re-begun, and transactions dropped
    #: after exhausting their retry budget.
    retries: int = 0
    gave_up: int = 0
    steps_submitted: int = 0
    steps_rejected: int = 0
    epochs_closed: int = 0
    #: repair rounds of aborts: one :meth:`Scheduler.retract` each.
    replays: int = 0
    #: wall-clock seconds of the driving run (set by the driver).
    elapsed: float = 0.0
    #: logical clock: driver rounds so far (the latency unit).
    ticks: int = 0
    latency: LatencyStats = field(default_factory=LatencyStats)
    gc: GCStats = field(default_factory=GCStats)
    #: version_count at end of run.
    final_versions: int = 0

    @property
    def aborted_total(self) -> int:
        return (
            self.aborted_rejected
            + self.aborted_deadlock
            + self.aborted_cascade
            + self.aborted_logic
            + self.aborted_external
        )

    #: the guaranteed cross-mode name for every abort, logic aborts
    #: included (each one cost an attempt).
    aborted = aborted_total

    @property
    def cc_aborts(self) -> int:
        """Concurrency-control aborts only — rejected step, deadlock
        break, cascade, external request; a program's own rollback is
        not one."""
        return self.aborted_total - self.aborted_logic

    @property
    def submitted(self) -> int:
        """Logical transactions drained: each one either durably
        commits or exhausts its retry budget."""
        return self.committed + self.gave_up

    @property
    def commit_rate(self) -> float:
        """Committed fraction of attempts begun."""
        return self.committed / self.attempts if self.attempts else 0.0

    def as_dict(self) -> dict:
        return _FIELDS.as_dict(self)

    def register_into(self, registry) -> None:
        """Publish into a :class:`repro.obs.MetricsRegistry`.

        Dotted ``engine.*`` names; the wall-clock ``elapsed`` is
        deliberately absent so equal-seed telemetry is byte-identical.
        """
        _FIELDS.register_into(self, registry)

    def report(self) -> str:
        """A human-readable block for the CLI."""
        lines = [
            f"attempts      {self.attempts}",
            f"committed     {self.committed}  "
            f"(rate {self.commit_rate:.3f})",
            f"aborted       {self.aborted_total}  "
            f"(rejected {self.aborted_rejected}, cascade "
            f"{self.aborted_cascade}, deadlock {self.aborted_deadlock}, "
            f"logic {self.aborted_logic}, "
            f"external {self.aborted_external})",
            f"retries       {self.retries}  (gave up {self.gave_up})",
            f"steps         {self.steps_submitted}  "
            f"(rejected {self.steps_rejected})",
            f"latency       {self.latency.summary()}",
            f"epochs        {self.epochs_closed}  (replays {self.replays})",
            f"versions      {self.final_versions} live, "
            f"peak {self.gc.peak_versions}, "
            f"pruned {self.gc.versions_pruned} "
            f"in {self.gc.collections} collections",
        ]
        return "\n".join(lines)


_FIELDS = FieldTable(
    "engine",
    ("attempts", "attempts", "attempts", "counter"),
    ("committed", "committed", "committed", "counter"),
    ("aborted_total", "aborted", None, None),
    ("aborted_rejected", "rejected", "aborted.rejected", "counter"),
    ("aborted_deadlock", "deadlock", "aborted.deadlock", "counter"),
    ("aborted_cascade", "cascade", "aborted.cascade", "counter"),
    ("aborted_logic", "logic", "aborted.logic", "counter"),
    ("aborted_external", "external", "aborted.external", "counter"),
    ("retries", "retries", "retries", "counter"),
    ("gave_up", "gave_up", "gave_up", "counter"),
    ("steps_submitted", "steps", "steps.submitted", "counter"),
    ("steps_rejected", None, "steps.rejected", "counter"),
    ("epochs_closed", "epochs", "epochs_closed", "counter"),
    ("replays", None, "replays", "counter"),
    ("ticks", None, "ticks", "gauge"),
    ("latency", "latency", "latency", "histogram"),
    ("gc.collections", None, "gc.collections", "counter"),
    ("gc.versions_pruned", "gc_pruned", "gc.versions_pruned", "counter"),
    ("gc.peak_versions", "peak_versions", "gc.peak_versions", "gauge"),
    ("final_versions", "final_versions", "final_versions", "gauge"),
)
