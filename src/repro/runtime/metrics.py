"""Runtime observability: transaction, group-commit and per-worker counters.

The runtime's metrics are split from :class:`repro.engine.EngineMetrics`
because the units differ: engine metrics count *attempts inside one
conflict domain*, while runtime metrics count *logical transactions
across domains* — a cross-shard transaction is one runtime commit but
one engine commit per involved worker.  The per-worker engine metrics
are attached verbatim for drill-down.

``as_dict`` deliberately excludes wall-clock fields so that two
same-seed runs serialize byte-identically — the reproducibility
contract ``repro run --mode parallel --deterministic`` tests against.
"""

# repro: deterministic-contract — equal seeds must yield byte-identical output

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.metrics import LatencyStats
from repro.obs.registry import FieldTable


@dataclass
class GroupCommitStats:
    """What the epoch-batched group commit did."""

    #: flush rounds executed / transactions durably flushed by them.
    batches: int = 0
    flushed: int = 0
    #: batched transactions that missed a flush because a read-from
    #: dependency was not yet in a flushed (or the same) batch.
    held_over: int = 0
    #: flushes forced by an epoch-close request rather than a full batch.
    forced: int = 0
    #: transactions found dead at flush time (vote-no / cascade).
    flush_aborts: int = 0
    largest_batch: int = 0

    @property
    def mean_batch(self) -> float:
        return self.flushed / self.batches if self.batches else 0.0

    def as_dict(self) -> dict:
        return _GROUP_COMMIT_FIELDS.as_dict(self)


@dataclass
class RuntimeMetrics:
    """Everything the dispatcher counts while draining a stream."""

    #: worker/domain topology (fixed at construction).
    n_workers: int = 0
    effective_domains: int = 0
    partitionable: bool = True

    #: logical transactions pulled from the stream / durably committed.
    submitted: int = 0
    committed: int = 0
    #: attempt-level aborts observed by the dispatcher, session retries
    #: re-launched, and transactions dropped after exhausting retries.
    aborted: int = 0
    #: of those, aborts the transaction's own program raised.
    aborted_logic: int = 0
    retries: int = 0
    gave_up: int = 0
    #: routing mix, counted once per logical transaction.
    single_shard: int = 0
    cross_shard: int = 0
    #: dispatcher rounds (the latency / backoff unit).
    ticks: int = 0
    #: wall-clock seconds (excluded from as_dict; see module docstring).
    elapsed: float = 0.0
    latency: LatencyStats = field(default_factory=LatencyStats)
    group_commit: GroupCommitStats = field(default_factory=GroupCommitStats)
    #: per-worker engine metrics dicts, in worker order (set at shutdown).
    per_worker: list[dict] = field(default_factory=list)
    #: per-shard store stats at shutdown (versions retained per shard).
    shard_stats: list[dict] = field(default_factory=list)

    @property
    def cc_aborts(self) -> int:
        """Attempt-level concurrency-control aborts: rejected steps,
        cascades, cross-shard vote-no and flush aborts — every abort but
        a program's own rollback."""
        return self.aborted - self.aborted_logic

    @property
    def commit_rate(self) -> float:
        """Committed fraction of submitted transactions."""
        return self.committed / self.submitted if self.submitted else 0.0

    def as_dict(self) -> dict:
        return {
            **_FIELDS.as_dict(self),
            "group_commit": self.group_commit.as_dict(),
            "per_worker": list(self.per_worker),
            "shard_stats": list(self.shard_stats),
        }

    def register_into(self, registry) -> None:
        """Publish into a :class:`repro.obs.MetricsRegistry`.

        Dotted ``runtime.*`` names; wall-clock quantities stay out so
        equal-seed deterministic telemetry is byte-identical.
        """
        _FIELDS.register_into(self, registry)
        _GROUP_COMMIT_FIELDS.register_into(self.group_commit, registry)

    def report(self) -> str:
        """A human-readable block for the CLI; no wall-clock field, so
        equal seeds give equal reports."""
        gc = self.group_commit
        lines = [
            f"workers       {self.n_workers}  "
            f"({self.effective_domains} conflict domain"
            f"{'s' if self.effective_domains != 1 else ''})",
            f"submitted     {self.submitted}",
            f"committed     {self.committed}  "
            f"(rate {self.commit_rate:.3f})",
            f"aborted       {self.aborted}  "
            f"(retries {self.retries}, gave up {self.gave_up})",
            f"routing       {self.single_shard} single-shard, "
            f"{self.cross_shard} cross-shard",
            f"group commit  {gc.flushed} txns in {gc.batches} batches "
            f"(mean {gc.mean_batch:.1f}, largest {gc.largest_batch}, "
            f"held over {gc.held_over}, forced {gc.forced})",
            f"latency       {self.latency.summary()}",
            f"ticks         {self.ticks}",
        ]
        return "\n".join(lines)


_GROUP_COMMIT_FIELDS = FieldTable(
    "runtime.group_commit",
    ("batches", "batches", "batches", "counter"),
    ("flushed", "flushed", "flushed", "counter"),
    ("mean_batch", "mean_batch", None, None),
    ("largest_batch", "largest_batch", "largest_batch", "gauge"),
    ("held_over", "held_over", "held_over", "counter"),
    ("forced", "forced", "forced", "counter"),
    ("flush_aborts", "flush_aborts", "flush_aborts", "counter"),
)

_FIELDS = FieldTable(
    "runtime",
    ("n_workers", "workers", "workers", "gauge"),
    ("effective_domains", "domains", "domains", "gauge"),
    ("partitionable", "partitionable", None, None),
    ("submitted", "submitted", "submitted", "counter"),
    ("committed", "committed", "committed", "counter"),
    ("aborted", "aborted", "aborted", "counter"),
    ("aborted_logic", "aborted_logic", "aborted.logic", "counter"),
    ("retries", "retries", "retries", "counter"),
    ("gave_up", "gave_up", "gave_up", "counter"),
    ("single_shard", "single_shard", "single_shard", "counter"),
    ("cross_shard", "cross_shard", "cross_shard", "counter"),
    ("ticks", "ticks", "ticks", "gauge"),
    ("latency", "latency", "latency", "histogram"),
)
