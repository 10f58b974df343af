"""Watermark-based version garbage collection.

The engine's version chains only grow (every write installs a version);
long streams would retain every version forever.  Following the bounded
version-retention idea of Ben-David et al. (space and time bounded
multiversion GC), the collector prunes, per entity, the chain prefix that
no live reader can address.

The watermark is a global install position: every version installed before
it is invisible to current and future reads *except* the newest such
version per entity, which is exactly the base version a reader positioned
at the watermark is served.  :meth:`MultiversionStore.prune_before`
implements that retention rule; the collector orchestrates it across
entities and keeps retention statistics.

The engine picks the watermark (the current epoch's start position): reads
inside an epoch are only ever assigned epoch-local writes or the entity's
base version at epoch start, so pruning behind the epoch is always safe —
a structural guarantee, not a heuristic.  The planner driver
(:mod:`repro.planner.driver`) makes the same argument with the batch as
the epoch: each settle collects behind the next batch's first install
position.
"""

# repro: deterministic-contract — equal seeds must yield byte-identical output

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import NULL_TRACER
from repro.storage.mvstore import VersionStore


@dataclass
class GCStats:
    """Retention statistics across a collector's lifetime."""

    collections: int = 0
    versions_pruned: int = 0
    #: version_count immediately before / after the last collection.
    last_before: int = 0
    last_after: int = 0
    #: largest version_count ever observed at a collection point.
    peak_versions: int = 0


class WatermarkGC:
    """Prune version-chain prefixes behind a position watermark."""

    def __init__(
        self, store, tracer=NULL_TRACER, trace_track: str = "engine"
    ) -> None:
        self.store: VersionStore = store
        self.stats = GCStats()
        self.tracer = tracer
        self.trace_track = trace_track

    def collect(self, watermark: int) -> int:
        """Prune everything unaddressable from ``watermark``; return count."""
        before = self.store.version_count()
        pruned = 0
        for entity in list(self.store.entities()):
            pruned += self.store.prune_before(entity, watermark)
        stats = self.stats
        stats.collections += 1
        stats.versions_pruned += pruned
        stats.last_before = before
        stats.last_after = before - pruned
        stats.peak_versions = max(stats.peak_versions, before)
        if self.tracer.enabled:
            self.tracer.instant(
                "gc", "gc.collect", self.trace_track,
                pruned=pruned, before=before, after=before - pruned,
                watermark=watermark,
            )
        return pruned
