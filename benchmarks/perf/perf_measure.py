"""The two passes of one workload and the metrics each one yields.

* :func:`measure_end_to_end` — untraced: timed repeats at N and N // 4
  until the time budget is spent, every repeat through the correctness
  gate.
* :func:`measure_layers` — traced: the same run under the wrappers of
  :mod:`perf_layers`, folded into per-layer counts and self times.

Wall-clock figures are *normalised to a calibration kernel*.  The box
this was built on (a shared host) runs in two states some 20 % apart
that last from a fraction of a second to a minute, so neither the
median nor the fastest of a run's repeats is steady from run to run.
A fixed pure-Python loop (:func:`kernel_s`) is timed before and after
every repeat, and the repeat's time is scaled by ``REFERENCE_KERNEL_S /
kernel time``: what it would have taken had the host run at the speed
at which the kernel takes the reference time.  The median of the
normalised repeats moves 3–8 % between runs (seeds included) where the
raw median moves ~15 % on one seed.  Raw times are kept beside the
normalised ones in the detail.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import perf_layers
from perf_workloads import (
    Prepared,
    comparable,
    failed_transactions,
    gate,
    same_as_named_run,
)

#: small-size repeats per full-size repeat (they cost a quarter each).
SMALL_PER_FULL = 2
MIN_FULL_REPEATS = 5
#: untraced runs the traced pass times to price its own overhead.
UNTRACED_REPEATS = 3


@dataclass
class Measurement:
    """What one pass found, ready to print."""

    #: name -> (value, unit)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: extra material for the ``--out`` file (repeat times, spans …).
    detail: dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems

    def note(self, report, txns: int, problems: list[str]) -> None:
        self.attempted += txns
        # A run that fails its checks delivered nothing.
        self.failed += txns if problems else failed_transactions(report, txns)
        self.problems.extend(problems)


#: what :func:`kernel_s` takes on the reference box in its fast state.
REFERENCE_KERNEL_S = 0.0084


def kernel_s() -> float:
    """Time the calibration kernel: the host's speed right now."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(100_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return time.perf_counter() - started


def spread(values: list[float]) -> float:
    """Inter-quartile range over the median — what ``agree`` holds
    against a metric's bound."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def host_factor(kernel_before_s: float, kernel_after_s: float) -> float:
    """What to multiply a measured time by to put it at the reference
    host speed, given the kernel's time on both sides of it."""
    return REFERENCE_KERNEL_S / ((kernel_before_s + kernel_after_s) / 2)


@dataclass
class Repeats:
    """Timed repeats of one size: normalised seconds, raw beside them."""

    normalised_s: list[float] = field(default_factory=list)
    raw_s: list[float] = field(default_factory=list)

    def timed(self, run: Callable[[], Any]):
        gc.collect()  # a repeat does not pay for its predecessor's garbage
        before = kernel_s()
        started = time.perf_counter()
        outcome = run()
        raw = time.perf_counter() - started
        self.raw_s.append(raw)
        self.normalised_s.append(raw * host_factor(before, kernel_s()))
        return outcome

    def __len__(self) -> int:
        return len(self.raw_s)

    @property
    def median_s(self) -> float:
        return statistics.median(self.normalised_s)

    @property
    def spread(self) -> float:
        return spread(self.normalised_s)

    def stats(self) -> dict[str, float]:
        return {
            "n": len(self),
            "median_s": self.median_s,
            "spread": self.spread,
            "raw_best_s": min(self.raw_s),
            "raw_median_s": statistics.median(self.raw_s),
            "raw_max_s": max(self.raw_s),
        }


# -- end to end ----------------------------------------------------------

#: name, unit, better, worsening allowed (share of the parent's median).
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("txn_per_s", "1/s", "higher", 0.25),
    ("growth_exponent", "exponent", "lower", 0.25),
    ("commit_latency_ticks_mean", "ticks", "lower", 0.25),
    ("attempts_per_txn", "ratio", "lower", 0.10),
    ("committed_share", "ratio", "higher", 0.03),
    ("peak_rss_mb", "MB", "lower", 0.10),
)


def measure_end_to_end(
    prepared: Prepared,
    seconds: float,
    min_full_repeats: int = MIN_FULL_REPEATS,
) -> Measurement:
    """Everything but ``setup_s``, which the caller owns (it is the time
    the caller took to get here)."""
    workload = prepared.workload
    full, small = max(prepared.sizes), min(prepared.sizes)
    result = Measurement()
    repeats = {full: Repeats(), small: Repeats()}
    first: dict[int, dict] = {}
    last = {}
    deadline = time.perf_counter() + seconds
    while True:
        for txns in (full,) + (small,) * SMALL_PER_FULL:
            report = repeats[txns].timed(lambda: prepared.run(txns))
            problems = gate(workload, report, txns)
            shape = comparable(workload, report)
            if shape != first.setdefault(txns, shape):
                problems.append(f"repeat at {txns} differs from the first")
            result.note(report, txns, problems)
            last[txns] = report
        if (
            len(repeats[full]) >= min_full_repeats
            and time.perf_counter() >= deadline
        ):
            break
    result.problems.extend(same_as_named_run(prepared, last[small]))

    report = last[full]
    result.metrics = {
        "txn_per_s": (report.committed / repeats[full].median_s, "1/s"),
        "growth_exponent": (
            math.log(repeats[full].median_s / repeats[small].median_s)
            / math.log(full / small),
            "exponent",
        ),
        "commit_latency_ticks_mean": (report.latency.mean, "ticks"),
        # The issue's abort_ratio and failed_share, turned into figures
        # that are never 0: attempts started per transaction, and the
        # share of submitted transactions that committed.
        "attempts_per_txn": (1 + report.aborted / report.submitted, "ratio"),
        "committed_share": (report.committed / report.submitted, "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }
    result.detail = {
        "sizes": {"full": full, "small": small},
        "full": repeats[full].stats(),
        "small": repeats[small].stats(),
        "spread": {
            "txn_per_s": repeats[full].spread,
            "growth_exponent": (
                repeats[full].spread + repeats[small].spread
            ) / math.log(full / small),
        },
    }
    return result


# -- per layer -----------------------------------------------------------


def _nested_sum(node, key: str) -> float:
    """Sum of every ``key`` in a nested ``mode_specific`` mapping (one
    per engine: top level, per worker, or under the planner)."""
    if isinstance(node, dict):
        return sum(
            value if name == key else _nested_sum(value, key)
            for name, value in node.items()
        )
    if isinstance(node, (list, tuple)):
        return sum(_nested_sum(item, key) for item in node)
    return 0


def _calls(group: str) -> Callable:
    return lambda profile, report: profile.group(group).calls


def _self_s(*groups: str) -> Callable:
    return lambda profile, report: sum(
        profile.group(group).self_s for group in groups
    )


def _total_s(group: str) -> Callable:
    return lambda profile, report: profile.group(group).total_s


def _value(group: str) -> Callable:
    return lambda profile, report: profile.group(group).value


def _per_call(group: str) -> Callable:
    def ratio(profile, report):
        totals = profile.group(group)
        return totals.value / totals.calls if totals.calls else 0.0
    return ratio


def _batch_fill(profile, report) -> float:
    log = report.mode_specific.get("group_commit")
    return log["mean_batch"] / report.config.batch_size if log else 0.0


def _pipeline_stall_s(profile, report) -> float:
    """Planning time the execution stage could not hide (threaded)."""
    native = report.metrics
    return max(
        getattr(native, "plan_elapsed", 0.0)
        - getattr(native, "overlap_elapsed", 0.0),
        0.0,
    )


def _audit(attribute: str) -> Callable:
    return lambda profile, report: (
        float(getattr(report.audit, attribute)) if report.audit else 0.0
    )


#: name, unit, better, how to read it off a (LayerProfile, RunReport).
#: ``bench.trace_overhead_x`` is filled in by :func:`measure_layers`.
PER_LAYER: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("db.run.self_s", "s", "lower", _self_s("db.run")),
    ("db.commit_latency_ticks_p50", "ticks", "lower",
     lambda profile, report: report.latency.p50),
    ("db.commit_latency_ticks_p95", "ticks", "lower",
     lambda profile, report: report.latency.p95),
    ("schedulers.submit.calls", "count", "lower", _calls("schedulers.submit")),
    ("schedulers.submit.self_s", "s", "lower", _self_s("schedulers.submit")),
    ("schedulers.submit.reject_ratio", "ratio", "lower",
     _per_call("schedulers.submit")),
    ("schedulers.reset.calls", "count", "lower", _calls("schedulers.reset")),
    ("schedulers.reset.self_s", "s", "lower", _self_s("schedulers.reset")),
    ("storage.read.calls", "count", "lower", _calls("storage.read")),
    ("storage.read.self_s", "s", "lower", _self_s("storage.read")),
    ("storage.write.calls", "count", "lower", _calls("storage.write")),
    ("storage.write.self_s", "s", "lower", _self_s("storage.write")),
    ("storage.undo.calls", "count", "lower", _calls("storage.undo")),
    ("storage.undo.self_s", "s", "lower", _self_s("storage.undo")),
    ("storage.prune.calls", "count", "lower", _calls("storage.prune")),
    ("storage.prune.self_s", "s", "lower", _self_s("storage.prune")),
    ("storage.prune.freed", "count", "higher", _value("storage.prune")),
    ("storage.scan.calls", "count", "lower", _calls("storage.scan")),
    ("storage.scan.self_s", "s", "lower", _self_s("storage.scan")),
    ("storage.sharded.self_s", "s", "lower", _self_s("storage.sharded")),
    ("storage.placeholder.wait_s", "s", "lower",
     _total_s("storage.placeholder")),
    ("storage.versions_final", "count", "lower",
     lambda profile, report: _nested_sum(
         report.mode_specific, "final_versions")),
    ("storage.chain_len_max", "count", "lower",
     lambda profile, report: profile.group("storage.scan").value_max),
    ("engine.submit.calls", "count", "lower", _calls("engine.submit")),
    ("engine.submit.self_s", "s", "lower", _self_s("engine.submit")),
    ("engine.finish.calls", "count", "lower", _calls("engine.finish")),
    ("engine.finish.self_s", "s", "lower", _self_s("engine.finish")),
    ("engine.close_epoch.calls", "count", "lower",
     _calls("engine.close_epoch")),
    ("engine.close_epoch.self_s", "s", "lower",
     _self_s("engine.close_epoch")),
    ("engine.abort_attempt.calls", "count", "lower",
     _calls("engine.abort_attempt")),
    ("engine.attempts_per_txn", "ratio", "lower",
     lambda profile, report: (
         profile.group("engine.begin").calls / report.submitted)),
    ("engine.driver.self_s", "s", "lower", _self_s("engine.driver")),
    ("engine.gc.collect.calls", "count", "lower",
     _calls("engine.gc.collect")),
    ("engine.gc.collect.self_s", "s", "lower", _self_s("engine.gc.collect")),
    ("engine.gc.pruned", "count", "higher", _value("engine.gc.collect")),
    ("runtime.dispatch.self_s", "s", "lower", _self_s("runtime.dispatch")),
    ("runtime.worker.execute.calls", "count", "lower",
     _calls("runtime.worker.execute")),
    ("runtime.worker.execute.self_s", "s", "lower",
     _self_s("runtime.worker.execute")),
    ("runtime.worker.flush.calls", "count", "lower",
     _calls("runtime.worker.flush")),
    ("runtime.worker.flush.self_s", "s", "lower",
     _self_s("runtime.worker.flush")),
    ("runtime.cross_shard.calls", "count", "lower",
     _calls("runtime.cross_shard")),
    ("runtime.group_commit.settle.calls", "count", "lower",
     _calls("runtime.group_commit.settle")),
    ("runtime.group_commit.self_s", "s", "lower",
     _self_s("runtime.group_commit", "runtime.group_commit.settle")),
    ("runtime.group_commit.batch_fill", "ratio", "higher", _batch_fill),
    ("runtime.wait_s", "s", "lower", _total_s("runtime.wait")),
    ("planner.planning.calls", "count", "lower", _calls("planner.planning")),
    ("planner.planning.self_s", "s", "lower", _self_s("planner.planning")),
    ("planner.executor.calls", "count", "lower", _calls("planner.executor")),
    ("planner.executor.self_s", "s", "lower", _self_s("planner.executor")),
    ("planner.reexec.calls", "count", "lower", _calls("planner.reexec")),
    ("planner.reexec.self_s", "s", "lower", _self_s("planner.reexec")),
    ("planner.reexec.reexecuted", "count", "lower",
     lambda profile, report: report.mode_specific.get("reexecuted", 0)),
    ("planner.reexec.rounds", "count", "lower",
     lambda profile, report: report.mode_specific.get("reexec_rounds", 0)),
    ("planner.driver.self_s", "s", "lower", _self_s("planner.driver")),
    ("planner.pipeline.stall_s", "s", "lower", _pipeline_stall_s),
    ("obs.emit.calls", "count", "lower", _calls("obs.emit")),
    ("obs.emit.self_s", "s", "lower", _self_s("obs.emit")),
    ("obs.dropped", "count", "lower", _audit("dropped")),
    ("audit.feed.calls", "count", "lower", _calls("audit.feed")),
    ("audit.feed.self_s", "s", "lower", _self_s("audit.feed")),
    ("audit.finish.self_s", "s", "lower", _self_s("audit.finish")),
    ("audit.segments", "count", "higher", _audit("segments")),
    ("audit.verdict_ok", "count", "higher", _audit("ok")),
    ("graphs.cycle_check.calls", "count", "lower",
     _calls("graphs.cycle_check")),
    ("graphs.cycle_check.self_s", "s", "lower",
     _self_s("graphs.cycle_check")),
    ("graphs.copy.calls", "count", "lower", _calls("graphs.copy")),
    ("graphs.copy.self_s", "s", "lower", _self_s("graphs.copy")),
    ("graphs.polygraph.calls", "count", "lower", _calls("graphs.polygraph")),
    ("graphs.polygraph.self_s", "s", "lower", _self_s("graphs.polygraph")),
    ("graphs.polygraph.longest_s", "s", "lower",
     lambda profile, report: profile.group("graphs.polygraph").longest_s),
    ("bench.trace_overhead_x", "x", "lower", None),
    ("bench.spans", "count", "lower",
     lambda profile, report: profile.spans),
)


def measure_layers(
    prepared: Prepared, seconds: float, keep_spans: bool = False
) -> Measurement:
    """Traced repeats at N until the budget is spent; the median one is
    reported."""
    workload, txns = prepared.workload, max(prepared.sizes)
    result = Measurement()
    untraced = Repeats()
    for _ in range(UNTRACED_REPEATS):
        report = untraced.timed(lambda: prepared.run(txns))
        result.note(report, txns, gate(workload, report, txns))
    expected = comparable(workload, report)

    recorder = perf_layers.Recorder()

    def traced_run():
        recorder.active = True
        try:
            return prepared.run(txns)
        finally:
            recorder.active = False

    traced = Repeats()
    runs = []  # (profile, report, logs) per traced repeat
    deadline = time.perf_counter() + seconds
    with perf_layers.installed(recorder):
        while not runs or time.perf_counter() < deadline:
            report = traced.timed(traced_run)
            logs = recorder.take()
            problems = gate(workload, report, txns)
            if comparable(workload, report) != expected:
                problems.append("traced run differs from the untraced one")
            result.note(report, txns, problems)
            runs.append((
                perf_layers.fold(recorder.names, logs), report,
                logs if keep_spans else None,
            ))
    # The repeat at the median, so that counts and times belong to one
    # run; its times are put at the reference host speed like the rest.
    run_id = sorted(
        range(len(runs)), key=traced.normalised_s.__getitem__
    )[len(runs) // 2]
    profile, report, logs = runs[run_id]
    factor = traced.normalised_s[run_id] / traced.raw_s[run_id]

    for name, unit, _, read in PER_LAYER:
        if read is None:
            value = traced.median_s / untraced.median_s
        else:
            value = read(profile, report) * (factor if unit == "s" else 1)
        result.metrics[name] = (float(value), unit)
    result.detail = {
        "sizes": {"full": txns},
        "traced": traced.stats(),
        "untraced": untraced.stats(),
        "host_factor": factor,
        "root_s": profile.root_s * factor,
        "self_sum_s": profile.self_sum_s * factor,
        "groups": {
            group: vars(totals)
            for group, totals in sorted(profile.groups.items())
        },
    }
    if keep_spans:
        result.detail["spans"] = perf_layers.dump(
            recorder.names, logs, run_id
        )
    return result
