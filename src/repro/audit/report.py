"""`AuditReport`: the audit verdict as a byte-stable record.

Mirrors the repo's other machine-readable surfaces (trace JSONL, bench
records): fixed key order, compact separators, nothing wall-clock —
so equal-seed deterministic runs produce byte-identical reports, and a
committed report diffs cleanly against a re-audit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.audit.violations import Violation

#: the report schema version (bump on any key change).
REPORT_VERSION = "repro.audit/v2"


def _dump(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=False)


@dataclass(frozen=True)
class AuditReport:
    """What the auditor concluded about one trace."""

    ok: bool
    #: events fed to the reconstructor (every event, not just data ops).
    events: int
    #: ring-buffer drops reported for the stream; > 0 voids the audit.
    dropped: int
    #: tracks that carried data operations.
    tracks: int
    #: segments (epochs/batches) reconstructed.
    segments: int
    #: segments certified 1-SR: a replay-verified serial order, or a
    #: completed search that found one.
    certified: int
    #: judged segments by the tier that gave the verdict, keyed in
    #: :data:`repro.classes.mvsr.TIERS` order: the claimed (commit)
    #: order replayed, an order derived from the serialization graph
    #: replayed, or the budgeted polygraph search (whose count includes
    #: the segments it rejected or left undecided).
    tiers: dict[str, int]
    #: choices the search tried, per segment that reached it.
    search_choices: tuple[int, ...]
    #: committed attempts whose data ops entered a schedule.
    committed_attempts: int
    reads: int
    writes: int
    violations: tuple[Violation, ...]

    def as_dict(self) -> dict:
        """Fixed key order (declaration order) — byte-stable JSON."""
        return {
            "meta": "audit",
            "version": REPORT_VERSION,
            "ok": self.ok,
            "events": self.events,
            "dropped": self.dropped,
            "tracks": self.tracks,
            "segments": self.segments,
            "certified": self.certified,
            "tiers": dict(self.tiers),
            "search_choices": sum(self.search_choices),
            "committed_attempts": self.committed_attempts,
            "reads": self.reads,
            "writes": self.writes,
            "violations": [v.as_dict() for v in self.violations],
        }

    def register_into(self, registry) -> None:
        """The telemetry view of the tiers (names: ``repro.obs.taxonomy``)."""
        for tier, judged in self.tiers.items():
            registry.counter(f"audit.tier.{tier}", judged)
        registry.histogram("audit.search.choices", self.search_choices)

    def as_json(self) -> str:
        return _dump(self.as_dict())

    def tiers_line(self) -> str:
        """``replay a, graph b, search c`` — the tier tallies in words."""
        return ", ".join(f"{tier} {n}" for tier, n in self.tiers.items())

    def format(self) -> str:
        """The CLI's human block: verdict first, violations itemized."""
        verdict = (
            "CERTIFIED: 1-serializable"
            if self.ok
            else f"VIOLATED: {len(self.violations)} violation(s)"
        )
        lines = [
            f"audit         {verdict}",
            f"segments      {self.segments}  "
            f"(certified {self.certified}, tracks {self.tracks})",
            f"tiers         {self.tiers_line()}  "
            f"({sum(self.search_choices)} choices tried)",
            f"operations    {self.reads} reads, {self.writes} writes, "
            f"{self.committed_attempts} committed attempts",
            f"events        {self.events}  (dropped {self.dropped})",
        ]
        for v in self.violations:
            where = (
                f"{v.track}#{v.segment}" if v.segment >= 0 else "<stream>"
            )
            who = f" txn={v.txn}" if v.txn else ""
            lines.append(f"  {v.code:<20} {where}{who}: {v.detail}")
        return "\n".join(lines)
