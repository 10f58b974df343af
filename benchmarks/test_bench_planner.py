"""E17 — abort-free batch planner vs the online execution modes.

Runs the ``e17`` bench suite (:mod:`repro.bench`): the identical stream
through all three execution modes via the typed Database API — serial
engine (abort/retry), parallel shard runtime (group commit), batch
planner (plan-then-execute) — on two workloads: the sharded bank
scenario (E16's write-heavy baseline) and the read-mostly hot-key
scenario, where nearly every transaction is a multi-key read racing a
trickle of hot writes — the abort machine of the optimistic modes, and
exactly the reads planning resolves for free.  The run leaves
``BENCH_e17.json`` next to the txt table.

Pinned claims:

* the planner path reports **zero concurrency-control aborts** on both
  workloads at every worker count — by construction, but measured
  (``cc_aborts`` is the engine's abort counters, which the planner
  reuses and never touches);
* the planner **attempts each transaction exactly once** where the
  serial engine at 4 workers attempts the same stream more often than
  it submitted it — the work planning removes, as a count (what it is
  worth in seconds is ``benchmarks/perf``'s ``read-mostly-planned``);
* on the abort-heavy stream **re-execution commits strictly more than
  the poison cascade** and exactly what the serial engine commits;
* two same-seed planner runs produce **byte-identical bench records**
  (throughput is tick-based, so the whole record — counters, latency
  percentiles, telemetry — is the contract).
"""

import json

from repro.bench import get_suite, make_record, run_case, run_suite

SUITE = get_suite("e17")
WORKER_COUNTS = [1, 2, 4]
WORKLOADS = ["sharded-bank", "read-mostly"]


def test_bench_planner(
    table_writer, bench_document_writer, count_columns
):
    results = run_suite(SUITE)
    by_id = {r.case.case_id: r for r in results}
    report = {cid: r.report for cid, r in by_id.items()}

    def row(workload, mode, workers, r):
        return {
            "workload": workload, "mode": mode, "workers": workers,
            **count_columns(r),
        }

    rows = []
    for wname in WORKLOADS:
        serial = report[f"{wname}/serial"]
        n_txns = by_id[f"{wname}/serial"].txns
        rows.append(row(wname, "serial-engine", 4, serial))
        rows.append(
            row(wname, "runtime", 4, report[f"{wname}/parallel-det"])
        )
        # The serial engine pays for its conflicts in repeated attempts.
        assert serial.metrics.attempts > serial.submitted == n_txns
        for workers in WORKER_COUNTS:
            m = report[f"{wname}/planner/w{workers}/det"]
            rows.append(row(wname, "planner", workers, m))
            # Zero CC aborts, one attempt per transaction, nothing
            # dropped (these workloads have no logic aborts).
            assert m.cc_aborts == 0, (wname, workers)
            assert m.metrics.logic_aborted == 0
            assert m.metrics.cascade_aborted == 0
            assert m.metrics.engine.attempts == n_txns
            assert m.committed == m.submitted == n_txns

    # The re-execution claim (abort-heavy column): the planner with
    # re-execution strictly beats the poison cascade on committed
    # transactions, matches the serial engine's committed set size
    # (both realize the serial-oracle outcome), and neither planner
    # run pays a single concurrency-control abort.
    serial_ah = report["abort-heavy/serial"]
    cascade = report["abort-heavy/planner/cascade"]
    reexec = report["abort-heavy/planner/reexec"]
    rows.append(row("abort-heavy", "serial-engine", 4, serial_ah))
    rows.append(row("abort-heavy", "planner-cascade", 4, cascade))
    rows.append(row("abort-heavy", "planner-reexec", 4, reexec))
    assert reexec.cc_aborts == cascade.cc_aborts == 0
    assert reexec.committed > cascade.committed
    assert reexec.committed == serial_ah.committed
    # One re-run per victim: the cascade run of the same stream counts
    # exactly the readers the pass re-runs (a re-run multiplier fails
    # here without timing anything).
    assert reexec.metrics.reexecuted == cascade.metrics.cascade_aborted
    assert reexec.metrics.reexecuted <= reexec.submitted
    assert reexec.metrics.cascade_aborted == 0
    assert cascade.metrics.cascade_aborted > 0
    assert cascade.metrics.reexecuted == 0

    # Reproducibility: same seed, byte-identical bench record — the
    # planner's determinism contract, pinned at the record level (what
    # `repro bench compare` consumes).
    for case_id in [
        f"{wname}/planner/w4/det" for wname in WORKLOADS
    ] + ["abort-heavy/planner/reexec"]:
        first = make_record("e17", by_id[case_id], sha="pinned")
        again = make_record(
            "e17", run_case(SUITE.case(case_id)), sha="pinned"
        )
        assert json.dumps(first) == json.dumps(again), case_id

    table_writer(
        "E17_planner",
        "abort-free batch planner vs serial engine and shard runtime "
        f"({results[0].txns} txns)",
        rows,
    )
    bench_document_writer("e17", results)
