"""Named audit violations: one code per broken invariant.

Each code names the exact promise that failed, so a red audit reads as
a diagnosis, not a boolean.  The codes double as the adversarial-test
contract: every hand-mutated trace fixture must map to its one code
(``tests/audit/test_adversarial.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

#: every code the auditor can emit, with the invariant it stands for.
VIOLATION_CODES: dict[str, str] = {
    "trace-dropped": (
        "the event log dropped events; the stream is incomplete and "
        "no reconstruction is trustworthy"
    ),
    "missing-write": (
        "a read sources a chain position no write event installed "
        "(reads-from consistency)"
    ),
    "read-from-mismatch": (
        "a read's claimed writer differs from the transaction that "
        "installed the version at that position (forged reads-from edge)"
    ),
    "read-from-aborted": (
        "a committed read sources a version whose writer aborted "
        "(dirty read survived into a commit)"
    ),
    "duplicate-position": (
        "two committed writes claim the same chain position "
        "(version-chain integrity)"
    ),
    "chain-regression": (
        "a committed install position is not above every earlier "
        "segment's on its track (version-chain integrity)"
    ),
    "stale-base-read": (
        "a cross-epoch read was not served the newest committed "
        "pre-epoch version (base-capture rule)"
    ),
    "commit-order": (
        "a reader committed before its reads-from source (the "
        "recoverability / group-commit flush rule)"
    ),
    "not-serializable": (
        "the epoch's schedule with its observed reads-from relation is "
        "not 1-serializable (the polygraph search completed and found "
        "no serial order)"
    ),
    "audit-budget-exceeded": (
        "neither the claimed nor the derived order is a witness and the "
        "polygraph search hit its choice budget: the epoch is undecided "
        "— not certified, and not shown non-serializable either"
    ),
}


@dataclass(frozen=True)
class Violation:
    """One broken invariant, located as precisely as the trace allows."""

    code: str
    track: str
    #: segment (epoch/batch) index on the track; -1 when trackless
    #: (e.g. ``trace-dropped``).
    segment: int
    #: offending transaction id, "" when not attributable to one.
    txn: str
    detail: str

    def __post_init__(self) -> None:
        if self.code not in VIOLATION_CODES:
            raise ValueError(
                f"unknown violation code {self.code!r}; one of "
                f"{sorted(VIOLATION_CODES)}"
            )

    def as_dict(self) -> dict:
        """Fixed key order — audit reports serialize byte-identically."""
        return {
            "code": self.code,
            "track": self.track,
            "segment": self.segment,
            "txn": self.txn,
            "detail": self.detail,
        }
