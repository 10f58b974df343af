"""Lint findings and the report they roll up into.

A :class:`Finding` is one rule violation at one source location; a
:class:`LintReport` is the fixed-key-order document ``repro lint``
prints and ``--json`` persists.  The report follows the repo's record
conventions (``repro.bench/v1`` et al.): a versioned schema string,
stable key order, findings sorted by ``(path, line, rule)`` — two runs
over the same tree produce byte-identical JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable

#: the report schema version (bump on any key change).
REPORT_VERSION = "repro.lint/v2"

#: findings the runner itself emits — lint hygiene, not registered
#: rules: they are always on, never selectable, never suppressible.
META_RULES: dict[str, str] = {
    "P001": "lint-ignore pragma is missing its reason",
    "P002": "lint-ignore pragma names an unknown rule id",
    "P003": "malformed or unknown `# repro:` pragma",
}


@dataclass(frozen=True, order=True)
class Finding:
    """One violation: which rule, where, and what to do about it."""

    path: str
    line: int
    rule_id: str
    message: str

    def as_dict(self) -> dict[str, Any]:
        """Fixed key order, rule first — the grep-friendly shape."""
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    def format(self) -> str:
        return f"{self.path}:{self.line} {self.rule_id} {self.message}"


class LintReport:
    """The outcome of one lint run, printable and JSON-serializable."""

    def __init__(
        self,
        findings: Iterable[Finding],
        *,
        files: int,
        rules: Iterable[str],
        suppressed: int = 0,
    ) -> None:
        self.findings: list[Finding] = sorted(findings)
        self.files = files
        self.rules: list[str] = sorted(rules)
        self.suppressed = suppressed

    @property
    def ok(self) -> bool:
        return not self.findings

    def as_dict(self) -> dict[str, Any]:
        return {
            "version": REPORT_VERSION,
            "files": self.files,
            "rules": self.rules,
            "findings": [f.as_dict() for f in self.findings],
            "suppressed": self.suppressed,
            "ok": self.ok,
        }

    def as_json(self) -> str:
        return json.dumps(self.as_dict(), separators=(",", ":"))

    def format(self) -> str:
        """The human rendering ``repro lint`` prints."""
        lines = [f.format() for f in self.findings]
        tail = (
            f"{len(self.findings)} finding(s)"
            if self.findings
            else "clean"
        )
        lines.append(
            f"{tail}: {self.files} file(s), {len(self.rules)} rule(s)"
            f"  (suppressed {self.suppressed})"
        )
        return "\n".join(lines)


__all__ = ["Finding", "LintReport", "META_RULES", "REPORT_VERSION"]
