"""Regression gating: baseline vs candidate bench documents.

The gate is the committed-throughput **median** per case (tick-based;
documents arrive from outside the program, so compare still checks that
a pair names the same unit).  Each baseline case yields one verdict:

* ``regression`` — candidate median fell below
  ``baseline × (1 − max_regress)``.  The boundary itself is *neutral*:
  a candidate sitting exactly at the threshold has not crossed it.
* ``improvement`` — candidate median rose above
  ``baseline × (1 + max_regress)``.
* ``neutral`` — within the band.
* ``zero-baseline`` — the baseline median is 0, so no ratio exists;
  handled explicitly (never a ZeroDivisionError): any positive
  candidate counts as recovered throughput, never a regression.
* ``missing`` — the candidate document has no record for the case.
  Gates fail on this: a silently dropped case is how a regression
  hides.
* ``unit-mismatch`` — the two records name different units (a
  document this checkout did not write); incomparable, and a gate
  failure for the same reason.

Candidate-only cases are reported as ``new`` and never fail the gate.
:func:`comparison_ok` is the exit-code rule: no regressions, no
missing cases, no unit mismatches.
"""

from __future__ import annotations

from typing import Any

#: verdicts that fail the gate (nonzero CLI exit).
FAILING_VERDICTS = frozenset({"regression", "missing", "unit-mismatch"})


def _records_by_case(document: dict[str, Any]) -> dict[str, dict]:
    return {record["case"]: record for record in document["records"]}


def compare_documents(
    baseline: dict[str, Any],
    candidate: dict[str, Any],
    *,
    max_regress: float = 0.1,
) -> list[dict[str, Any]]:
    """Per-case verdict rows, in baseline order (``new`` cases last).

    Each row carries the case id, both medians, the unit, the
    candidate/baseline ratio (``None`` when no ratio exists) and the
    verdict.
    """
    if not 0.0 <= max_regress < 1.0:
        raise ValueError(
            f"max_regress must be in [0, 1), got {max_regress}"
        )
    base_records = _records_by_case(baseline)
    cand_records = _records_by_case(candidate)
    rows: list[dict[str, Any]] = []
    for case_id, base in base_records.items():
        base_tp = base["throughput"]
        row: dict[str, Any] = {
            "case": case_id,
            "unit": base_tp["unit"],
            "baseline": base_tp["median"],
            "candidate": None,
            "ratio": None,
        }
        cand = cand_records.get(case_id)
        if cand is None:
            row["verdict"] = "missing"
        elif cand["throughput"]["unit"] != base_tp["unit"]:
            row["candidate"] = cand["throughput"]["median"]
            row["verdict"] = "unit-mismatch"
        else:
            value = cand["throughput"]["median"]
            row["candidate"] = value
            if base_tp["median"] == 0:
                row["verdict"] = "zero-baseline"
            else:
                ratio = value / base_tp["median"]
                row["ratio"] = round(ratio, 4)
                if ratio < 1.0 - max_regress:
                    row["verdict"] = "regression"
                elif ratio > 1.0 + max_regress:
                    row["verdict"] = "improvement"
                else:
                    row["verdict"] = "neutral"
        rows.append(row)
    for case_id, cand in cand_records.items():
        if case_id not in base_records:
            rows.append({
                "case": case_id,
                "unit": cand["throughput"]["unit"],
                "baseline": None,
                "candidate": cand["throughput"]["median"],
                "ratio": None,
                "verdict": "new",
            })
    return rows


def comparison_ok(rows: list[dict[str, Any]]) -> bool:
    """The gate: True iff no row carries a failing verdict."""
    return not any(row["verdict"] in FAILING_VERDICTS for row in rows)


def format_comparison(
    rows: list[dict[str, Any]], *, max_regress: float
) -> str:
    """The CLI's human block: one line per case, then the tally."""
    def fmt(value) -> str:
        return "-" if value is None else f"{value:g}"

    width = max((len(row["case"]) for row in rows), default=4)
    lines = [
        f"{'case'.ljust(width)}  {'baseline':>10}  {'candidate':>10}"
        f"  {'ratio':>7}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['case'].ljust(width)}  {fmt(row['baseline']):>10}"
            f"  {fmt(row['candidate']):>10}  {fmt(row['ratio']):>7}"
            f"  {row['verdict']} [{row['unit']}]"
        )
    tally: dict[str, int] = {}
    for row in rows:
        tally[row["verdict"]] = tally.get(row["verdict"], 0) + 1
    summary = ", ".join(
        f"{count} {verdict}" for verdict, count in sorted(tally.items())
    )
    gate = "ok" if comparison_ok(rows) else "FAILED"
    lines.append(
        f"{len(rows)} case(s): {summary}  "
        f"(max-regress {max_regress:g}) -> {gate}"
    )
    return "\n".join(lines)
