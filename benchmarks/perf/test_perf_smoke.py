"""Tier-1 smoke test of the wall-clock benchmark: every workload at a
few hundred transactions, one repeat per pass — that the metrics the
contract declares are all emitted, under legal names, that the layers a
workload is meant to bypass record no calls, and that the tracing
wrappers leave ``repro`` as they found it."""

from __future__ import annotations

import json
import pathlib
import re
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import perf_layers  # noqa: E402
import perf_measure  # noqa: E402
import perf_workloads  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

ONLINE = {"oltp-contended", "oltp-sgt", "sharded-2pc"}
PLANNED = {w.name for w in perf_workloads.WORKLOADS} - ONLINE
EVERY = ONLINE | PLANNED
#: per-layer counts that must read 0 — the bypass half of the design.
ZERO_ON = {
    "schedulers.submit.calls": PLANNED,
    "engine.submit.calls": PLANNED,
    "runtime.worker.execute.calls": EVERY - {"sharded-2pc"},
    "runtime.group_commit.settle.calls": EVERY - {"sharded-2pc"},
    "planner.planning.calls": ONLINE,
    "planner.executor.calls": ONLINE,
    "obs.emit.calls": EVERY - {"audited-run"},
    "audit.feed.calls": EVERY - {"audited-run"},
    "graphs.polygraph.calls": EVERY - {"audited-run"},
    "graphs.cycle_check.calls": EVERY - {"oltp-sgt", "audited-run"},
}


def test_benchmark_json_is_the_tables():
    assert BENCHMARK["command"] == ["python3", "benchmarks/perf/run.py"]
    assert BENCHMARK["paths"] == ["benchmarks/perf"]
    assert BENCHMARK["run_seconds"] == run.RUN_SECONDS
    assert BENCHMARK["workloads"] == [
        {"name": w.name, "why": w.why} for w in perf_workloads.WORKLOADS
    ]
    assert BENCHMARK["end_to_end"] == [
        {"name": name, "unit": unit, "better": better, "bound": bound}
        for name, unit, better, bound in perf_measure.END_TO_END
    ]
    assert BENCHMARK["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, unit, better, _ in perf_measure.PER_LAYER
    ]
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    names += [m["name"] for m in BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


@pytest.mark.parametrize(
    "workload", perf_workloads.WORKLOADS, ids=lambda w: w.name
)
def test_workload_emits_every_declared_metric(workload):
    sizes = (workload.smoke_txns, workload.smoke_txns // 4)
    prepared = perf_workloads.set_up(workload, seed=5, sizes=sizes)

    untraced = perf_measure.measure_end_to_end(
        prepared, seconds=0, min_full_repeats=1
    )
    assert untraced.problems == []
    assert untraced.failed == 0 < untraced.attempted
    assert ["setup_s", *untraced.metrics] == [
        m["name"] for m in BENCHMARK["end_to_end"]
    ]
    assert all(value > 0 for value, _ in untraced.metrics.values())

    traced = perf_measure.measure_layers(prepared, seconds=0, keep_spans=True)
    assert traced.problems == []
    assert list(traced.metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    for metric, workloads in ZERO_ON.items():
        if workload.name in workloads:
            assert traced.metrics[metric][0] == 0, metric
    spans = traced.detail["spans"]
    assert traced.metrics["bench.spans"][0] == sum(
        len(thread["name"]) for thread in spans["threads"]
    ) > 0
    if workload.deterministic:
        # One thread: every span nests under db.run, so the layers'
        # self times are exactly the root span, split.
        assert traced.detail["self_sum_s"] == pytest.approx(
            traced.detail["root_s"], rel=0.02
        )

    # A fresh install finds only original functions to wrap, so the
    # traced pass above removed every wrapper it had installed.
    with perf_layers.installed(perf_layers.Recorder()) as undo:
        assert undo
        for holder, attribute, original in undo:
            assert not hasattr(original, "__wrapped__"), (holder, attribute)
            assert vars(holder)[attribute].__wrapped__ is original
    for holder, attribute, original in undo:
        assert vars(holder)[attribute] is original
