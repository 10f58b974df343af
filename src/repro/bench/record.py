"""`BenchRecord`: the canonical, versioned perf record.

Every measured case serializes to one JSON object with a fixed key
order — suite/case identity, the full resolved ``RunConfig`` echo, the
guaranteed cross-mode report schema, the latency percentiles
(p50/p95/p99, the shared nearest-rank rule), the throughput aggregate,
the PR 6 telemetry snapshot, and provenance (python, platform, git
sha, seed).  A suite of records is one document written as
``BENCH_<suite>.json``, and it is **byte-stable**: two equal-seed runs
on the same checkout produce identical bytes, which is what makes a
committed baseline diffable and the regression gate trustworthy.

``SCHEMA_VERSION`` names the contract.  Readers reject documents from
a different major schema instead of mis-parsing them.
"""

# repro: deterministic-contract — equal seeds must yield byte-identical output

from __future__ import annotations

import json
import pathlib
import platform
import subprocess
from typing import Any

from repro.bench.runner import TICK_UNIT, CaseResult

#: the record contract version; bump on any key change.
SCHEMA_VERSION = "repro.bench/v1"


def git_sha(cwd: str | pathlib.Path | None = None) -> str:
    """The current commit sha, or ``"unknown"`` outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, cwd=cwd, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def make_record(
    suite_name: str, result: CaseResult, *, sha: str | None = None
) -> dict[str, Any]:
    """The canonical record dict for one measured case.

    Key order is fixed by construction (and ``write_document`` never
    re-sorts), so records serialize byte-identically for equal seeds.
    ``sha`` short-circuits the git lookup when the caller stamps a
    whole suite (one subprocess instead of one per case).  A case is
    one deterministic run, so the v1 schema's aggregate and repeat
    fields are constants: ``median == min == max``, ``cv`` 0.0,
    ``repeats`` 1, ``warmup`` 0.
    """
    case = result.case
    report = result.report
    throughput = result.throughput
    return {
        "schema": SCHEMA_VERSION,
        "suite": suite_name,
        "case": case.case_id,
        "scenario": {
            "name": case.scenario,
            "params": {
                k: case.scenario_params[k]
                for k in sorted(case.scenario_params)
            },
        },
        "txns": result.txns,
        "deterministic": report.deterministic,
        "config": report.config.as_dict(),
        "report": report.as_dict(),
        "latency": report.latency.as_dict(),
        "throughput": {
            "unit": TICK_UNIT,
            "median": throughput,
            "min": throughput,
            "max": throughput,
            "cv": 0.0,
        },
        "telemetry": report.telemetry(),
        "provenance": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "git_sha": git_sha() if sha is None else sha,
            "seed": report.config.seed,
            "repeats": 1,
            "warmup": 0,
        },
    }


def suite_document(
    suite_name: str, results: list[CaseResult]
) -> dict[str, Any]:
    """One document for a suite run: header + records in case order."""
    sha = git_sha()
    return {
        "schema": SCHEMA_VERSION,
        "suite": suite_name,
        "records": [
            make_record(suite_name, result, sha=sha)
            for result in results
        ],
    }


def write_document(
    document: dict[str, Any], path: str | pathlib.Path
) -> pathlib.Path:
    """Persist a suite document as stable, diffable JSON.

    ``indent=2`` with construction-order keys and a trailing newline:
    byte-for-byte reproducible, reviewable in a git diff for committed
    baselines.
    """
    path = pathlib.Path(path)
    path.write_text(
        json.dumps(document, indent=2, sort_keys=False) + "\n"
    )
    return path


def load_document(path: str | pathlib.Path) -> dict[str, Any]:
    """Read a suite document back, rejecting foreign schemas."""
    path = pathlib.Path(path)
    try:
        document = json.loads(path.read_text())
    except FileNotFoundError:
        raise ValueError(f"no bench document at {path}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not JSON: {exc}") from None
    schema = document.get("schema") if isinstance(document, dict) else None
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"{path} carries schema {schema!r}, expected "
            f"{SCHEMA_VERSION!r} (re-generate with this checkout's "
            f"'repro bench run')"
        )
    if not isinstance(document.get("records"), list):
        raise ValueError(f"{path} has no 'records' list")
    return document
