"""Same-answers sweep: everything a deterministic run decides, as files.

    same_answers.py OUT_DIR [--src PATH] [--txns N] [--seed S]

Runs every execution mode over every scenario — the online modes under
each scheduler, the planner under both its names — deterministically,
with ``--audit --json --trace``, and writes each run's report (the audit
document is its ``audit`` key) and JSONL trace into ``OUT_DIR``, plus the
``repro bench run`` record of the tick-based suites.  Fields that legitimately differ between two runs of
equal decisions (wall-clock throughput, the commit id) are stripped, so

    diff -r DIR_A DIR_B

is empty exactly when two source trees — a parent commit and a change
(``--src`` names the tree whose ``repro`` is run; default: this
checkout's) — or two runs of one tree answered the same.  A behaviour-
preserving PR attaches that empty diff; CI runs the sweep twice on the
checkout to keep it deterministic.

Exits 1 if any run does (a failed invariant or audit is an answer too,
but never one a sweep should pass over silently).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]

SCENARIOS = (
    "bank", "inventory", "sharded-bank", "abort-heavy", "read-mostly",
)
SCHEDULERS = ("2pl", "2v2pl", "mvto", "sgt", "si")
#: planner-family variants: name -> extra ``repro run`` arguments.
PLANNERS = {
    "planner": ("--mode", "planner"),
    "pipelined-l1": ("--mode", "pipelined", "--lookahead", "1"),
}
BENCH_SUITES = ("smoke", "e17", "e18")
#: dropped at any depth: which commit ran.
PROVENANCE = frozenset({"git_sha"})


def cases() -> list[tuple[str, tuple[str, ...]]]:
    """(file stem, ``repro run`` arguments) of every run of the sweep."""
    out = []
    for scenario in SCENARIOS:
        common = ("--scenario", scenario, "--workers", "4")
        for mode in ("serial", "parallel"):
            for scheduler in SCHEDULERS:
                out.append((
                    f"{mode}.{scheduler}.{scenario}",
                    ("--mode", mode, "--scheduler", scheduler, *common),
                ))
        for name, arguments in PLANNERS.items():
            out.append((f"{name}.{scenario}", (*arguments, *common)))
    # The shard runtime at the operating point ``sharded-2pc`` times
    # (two workers, batches of eight), not only at four workers.
    for scenario in ("sharded-bank", "abort-heavy"):
        for scheduler in SCHEDULERS:
            out.append((
                f"parallel.{scheduler}.{scenario}.w2-b8",
                ("--mode", "parallel", "--scheduler", scheduler,
                 "--scenario", scenario, "--workers", "2",
                 "--batch-size", "8"),
            ))
    # The shape of benchmarks/perf's ``sharded-2pc``: small group-commit
    # batches and cross-shard transfers, so 2PC votes and flushes run.
    out.append((
        "parallel.mvto.sharded-2pc-shape",
        ("--mode", "parallel", "--scheduler", "mvto", "--scenario",
         "sharded-bank", "--workers", "2", "--batch-size", "8",
         "--cross-fraction", "0.1", "--max-retries", "64"),
    ))
    return out


def strip(node):
    """``node`` without the :data:`PROVENANCE` keys, at any depth."""
    if isinstance(node, dict):
        return {
            key: strip(value)
            for key, value in node.items()
            if key not in PROVENANCE
        }
    if isinstance(node, list):
        return [strip(value) for value in node]
    return node


def dump(path: pathlib.Path, document) -> None:
    path.write_text(json.dumps(strip(document), indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=pathlib.Path)
    parser.add_argument("--src", type=pathlib.Path, default=REPO / "src")
    parser.add_argument("--txns", type=int, default=300)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    environment = dict(os.environ, PYTHONPATH=str(args.src.resolve()))

    def repro(*arguments: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "repro", *arguments],
            env=environment, capture_output=True, text=True,
        )

    failed = []
    runs = cases()
    for stem, arguments in runs:
        trace = args.out / f"{stem}.trace.jsonl"
        done = repro(
            "run", *arguments, "--deterministic",
            "--txns", str(args.txns), "--seed", str(args.seed),
            "--audit", "--json", "--trace", str(trace),
        )
        try:
            report = json.loads(done.stdout)
        except ValueError:
            report = {"stdout": done.stdout, "stderr": done.stderr}
        # A report's ``throughput`` is wall-clock txn/s (0.0 when
        # deterministic, dropped all the same); a bench record's is
        # txn/tick, an answer, and stays.
        report.pop("throughput", None)
        dump(args.out / f"{stem}.json",
             {"exit": done.returncode, "report": report})
        if done.returncode != 0:
            failed.append(stem)
    for suite in BENCH_SUITES:
        record = args.out / f"BENCH_{suite}.json"
        done = repro("bench", "run", "--suite", suite, "--json", str(record))
        if done.returncode != 0:
            failed.append(f"bench {suite}")
            record.write_text(done.stdout + done.stderr)
        else:
            dump(record, json.loads(record.read_text()))
    print(f"{len(runs)} runs + {len(BENCH_SUITES)} bench suites "
          f"-> {args.out}")
    for stem in failed:
        print(f"  exit != 0: {stem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
