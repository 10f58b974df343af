"""The repo's wall-clock benchmark (see README.md beside this file).

    run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
    run.py [--workload all] [--seed N] [--seconds S] [--out FILE]
    run.py agree A.json B.json

One workload and one pass per process: ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones, each by name with
its unit, and the last line of standard output is the result as one
JSON object.  ``all`` runs every workload and both passes, each in a
child process of its own (so ``peak_rss_mb`` is per workload and never
more than two threads are live), and writes the result set ``agree``
compares.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

import perf_measure
from perf_workloads import BY_NAME, WORKLOADS, set_up

HERE = pathlib.Path(__file__).resolve().parent
#: how long one pass measures unless told otherwise (= BENCHMARK.json).
RUN_SECONDS = 12
#: set-ups timed per end-to-end run: this process's own plus children.
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170


def _child(arguments: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *arguments],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )


def _setup_in_child(workload: str, seed: int) -> float:
    done = _child(
        ["--workload", workload, "--seed", str(seed), "--setup-only"]
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def _print_metrics(title: str, measurement, detail_keys: tuple[str, ...]):
    print(title)
    for key in detail_keys:
        stats = measurement.detail.get(key)
        if stats:
            print(f"  {key} repeats: " + ", ".join(
                f"{name}={value:.4g}" for name, value in stats.items()
            ))
    root_s = measurement.detail.get("root_s")
    for name, (value, unit) in measurement.metrics.items():
        share = (
            f"  ({value / root_s:6.1%} of db.run)"
            if root_s and name.endswith(".self_s") else ""
        )
        print(f"  {name:36s} {value:14.6g} {unit}{share}")
    for problem in measurement.problems:
        print(f"  INCORRECT: {problem}")


def run_one(args) -> int:
    workload = BY_NAME[args.workload]
    sizes = (workload.txns, workload.txns // 4)
    # Set-up time counts from here: nothing of the program is imported
    # yet.  Like every wall-clock figure it is normalised to the host's
    # speed, by the kernel's time on both sides (see perf_measure).
    kernel_before_s = perf_measure.kernel_s()
    started = time.perf_counter()
    prepared = set_up(workload, args.seed, sizes)
    own_setup_s = (time.perf_counter() - started) * perf_measure.host_factor(
        kernel_before_s, perf_measure.kernel_s()
    )
    if args.setup_only:
        print(repr(own_setup_s))
        return 0

    title = (f"== {workload.name}  seed={args.seed}  N={workload.txns}  "
             f"{args.seconds:g}s  ")
    if args.trace:
        measurement = perf_measure.measure_layers(
            prepared, args.seconds, keep_spans=bool(args.spans)
        )
        spans = measurement.detail.pop("spans", None)
        if spans is not None:
            _write_json(args.spans, spans)
        _print_metrics(
            title + "traced ==", measurement, ("untraced", "traced")
        )
        detail = measurement.detail
        print(f"  layer self times sum to "
              f"{detail['self_sum_s'] / detail['root_s']:.1%}"
              f" of the db.run span")
    else:
        measurement = perf_measure.measure_end_to_end(prepared, args.seconds)
        setups = [own_setup_s] + [
            _setup_in_child(workload.name, args.seed)
            for _ in range(SETUP_SAMPLES - 1)
        ]
        measurement.metrics = {
            "setup_s": (statistics.median(setups), "s"),
            **measurement.metrics,
        }
        measurement.detail["setup_s"] = setups
        measurement.detail["spread"]["setup_s"] = perf_measure.spread(setups)
        _print_metrics(title + "untraced ==", measurement, ("full", "small"))

    result = {
        "correct": measurement.correct,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in measurement.metrics.items()
        },
    }
    if args.out:
        _write_json(args.out, {
            **result, "workload": workload.name, "seed": args.seed,
            "trace": args.trace, "problems": measurement.problems,
            "detail": measurement.detail,
        })
    print(json.dumps(result))
    return 0 if measurement.correct else 1


def _write_json(path: str, document) -> None:
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(document) + "\n")


def run_all(args) -> int:
    """Every workload, both passes, one child process each."""
    out = pathlib.Path(
        args.out or HERE / "out" / f"results-seed{args.seed}.json"
    )
    results = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    status = 0
    for workload in WORKLOADS:
        entry = results["workloads"][workload.name] = {}
        for trace in (0, 1):
            part = out.with_name(
                f"{out.stem}.{workload.name}.trace{trace}.json"
            )
            done = _child([
                "--workload", workload.name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--out", str(part),
            ])
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                status = 1
            if part.exists():
                entry["per_layer" if trace else "end_to_end"] = json.loads(
                    part.read_text()
                )
                part.unlink()
    _write_json(str(out), results)
    print(f"result set written to {out}")
    return status


#: what a deterministic workload must reproduce exactly on equal seeds.
_COUNTS = [
    ("end_to_end", metric) for metric in
    ("commit_latency_ticks_mean", "attempts_per_txn", "committed_share")
] + [
    ("per_layer", metric) for metric, unit, _, _ in perf_measure.PER_LAYER
    if unit == "count"
]


def agree(path_a: str, path_b: str) -> int:
    """Compare result set B against A by the benchmark's own bounds.

    One row per (workload, end-to-end metric): ``within`` the bound,
    ``regressed`` beyond it, or ``unresolved`` when the repeats of either
    side spread wider than the bound.  On equal seeds the counts of
    the deterministic workloads must also be identical (``differs``).
    """
    a, b = (json.loads(pathlib.Path(p).read_text()) for p in (path_a, path_b))
    bad = 0
    print(f"{'workload':22s} {'metric':28s} {'A':>12s} {'B':>12s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    for name, side_a in a["workloads"].items():
        side_b = b["workloads"].get(name)
        if side_b is None:
            continue
        e2e_a, e2e_b = side_a["end_to_end"], side_b["end_to_end"]
        for metric, _, better, bound in perf_measure.END_TO_END:
            value_a = e2e_a["metrics"][metric]["value"]
            value_b = e2e_b["metrics"][metric]["value"]
            worse = (value_b - value_a) / value_a
            if better == "higher":
                worse = -worse
            spread = max(
                side["detail"]["spread"].get(metric, 0.0)
                for side in (e2e_a, e2e_b)
            )
            verdict = (
                "unresolved" if spread > bound
                else "regressed" if worse > bound
                else "within"
            )
            bad += verdict == "regressed"
            print(f"{name:22s} {metric:28s} {value_a:12.5g} {value_b:12.5g} "
                  f"{worse:+9.1%} {bound:6.0%}  {verdict}")
        if a["seed"] == b["seed"] and BY_NAME[name].deterministic:
            for part, metric in _COUNTS:
                value_a = side_a[part]["metrics"][metric]["value"]
                value_b = side_b[part]["metrics"][metric]["value"]
                if value_a != value_b:
                    bad += 1
                    print(f"{name:22s} {metric:28s} {value_a:12.5g} "
                          f"{value_b:12.5g} {'':9s} {'':6s}  differs")
    print("regressed or differing rows:", bad)
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["agree"]:
        if len(argv) != 3:
            print("usage: run.py agree A.json B.json", file=sys.stderr)
            return 2
        return agree(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *BY_NAME])
    parser.add_argument("--seed", type=int, default=11,
                        help="feeds the scenario and RunConfig (default 11)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="time budget of one pass's timed repeats")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="0: end-to-end metrics, 1: per-layer metrics")
    parser.add_argument("--out", help="write the detailed result here")
    parser.add_argument("--spans",
                        help="with --trace 1: write the span dump here")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
