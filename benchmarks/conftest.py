"""Shared benchmark utilities.

Each experiment benchmark measures its matrix through the
:mod:`repro.bench` harness (suites + runner — the same code path
``repro bench run`` and CI exercise), then *renders* two artifacts
under ``benchmarks/output/``:

* the committed txt table (``emit_table`` — a pure renderer over rows
  derived from the bench results), and
* the machine-readable suite record (``emit_bench_document`` —
  ``BENCH_<suite>.json``, the :data:`repro.bench.SCHEMA_VERSION`
  schema), so every benchmark run leaves a record comparable via
  ``repro bench compare``.
"""

from __future__ import annotations

import pathlib

import pytest

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def emit_table(experiment: str, title: str, rows: list[dict]) -> None:
    """Print a table and persist it under benchmarks/output/.

    A renderer only: every row must carry every header key (the first
    row defines the header set) — a missing key is a hard error, not a
    silently blank cell that ships in a committed table.
    """
    lines = [f"== {experiment}: {title} =="]
    if rows:
        headers = list(rows[0].keys())
        for index, row in enumerate(rows):
            missing = [h for h in headers if h not in row]
            if missing:
                raise ValueError(
                    f"{experiment}: row {index} is missing column(s) "
                    f"{missing} (headers come from row 0)"
                )
        widths = {
            h: max(len(str(h)), *(len(str(r[h])) for r in rows))
            for h in headers
        }
        lines.append(" | ".join(str(h).ljust(widths[h]) for h in headers))
        lines.append("-+-".join("-" * widths[h] for h in headers))
        for row in rows:
            lines.append(
                " | ".join(str(row[h]).ljust(widths[h]) for h in headers)
            )
    text = "\n".join(lines)
    print("\n" + text)
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUTPUT_DIR / f"{experiment}.txt").write_text(text + "\n")


def report_count_columns(report) -> dict:
    """The count/tick columns the E15–E18 tables share, read off the
    guaranteed cross-mode report schema plus the tick clock.  Every
    engine attempt ends committed or aborted, so ``attempts`` is their
    sum in every mode."""
    latency = report.latency
    return {
        "committed": report.committed,
        "attempts": report.committed + report.aborted,
        "cc_aborts": report.cc_aborts,
        "gave_up": report.gave_up,
        "ticks": report.metrics.ticks,
        "lat_mean": round(latency.mean, 1),
        "lat_p50": latency.p50,
        "lat_p95": latency.p95,
        "lat_p99": latency.p99,
    }


def emit_bench_document(suite_name: str, results) -> pathlib.Path:
    """Write ``BENCH_<suite>.json`` next to the txt tables."""
    from repro.bench import suite_document, write_document

    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    return write_document(
        suite_document(suite_name, list(results)),
        OUTPUT_DIR / f"BENCH_{suite_name}.json",
    )


@pytest.fixture
def table_writer():
    return emit_table


@pytest.fixture
def bench_document_writer():
    return emit_bench_document


@pytest.fixture
def count_columns():
    return report_count_columns
