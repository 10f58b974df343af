"""E18 — pipelined planner vs the sequential batch planner.

Runs the ``e18`` bench suite (:mod:`repro.bench`): the identical stream
through the ``planner`` (PR 3, strictly plan-execute-settle in
sequence) and ``pipelined`` (PR 5, plans batch k+1 while batch k
executes) backends via the typed Database API, on the two E17
workloads: the sharded bank (write-heavy) and the read-mostly hot-key
scenario.  Both modes build the *same plan* — the pipeline only moves
planning off the execution's critical path — so what this table can
show is the seam: the reads planned against an in-flight batch
(``cross_batch_reads``) and the ones re-bound when that batch settled.
The run leaves ``BENCH_e18.json`` next to the txt table.

Pinned claims:

* **zero concurrency-control aborts** in every pipelined configuration
  — same measured-zero contract as the sequential planner (the engine
  abort counters are reused and never touched);
* **plan-equivalence**: a same-seed pipelined run serializes
  ``metrics.as_dict()`` byte-identical to the *sequential planner's* —
  the pipeline changes when planning happens, never what is planned —
  including abort-heavy schedules whose readers re-bind past logic
  aborts, and a re-run of any case reproduces its bench record byte for
  byte.

Whether hiding planning under execution buys seconds is not claimed
here: ``benchmarks/perf`` measures that pair (``read-mostly-planned``
vs ``pipelined-threaded``).  That threaded runs really overlap the two
stages is a count pinned in ``tests/planner/test_pipeline.py``.
"""

import json

from repro.bench import get_suite, make_record, run_case, run_suite

SUITE = get_suite("e18")
LOOKAHEADS = [1, 2]
WORKLOADS = ["sharded-bank", "read-mostly"]


def test_bench_pipeline(
    table_writer, bench_document_writer, count_columns
):
    results = run_suite(SUITE)
    by_id = {r.case.case_id: r for r in results}
    report = {cid: r.report for cid, r in by_id.items()}

    def metrics_json(r):
        return json.dumps(r.metrics.as_dict())

    for wname in WORKLOADS:
        planner = report[f"{wname}/planner/det"]
        for lookahead in LOOKAHEADS:
            case_id = f"{wname}/pipelined/la{lookahead}/det"
            r = report[case_id]
            # Zero CC aborts, nothing dropped (these workloads have no
            # logic aborts), and the sequential planner's exact plan.
            assert r.cc_aborts == 0, (wname, lookahead)
            assert r.metrics.logic_aborted == 0
            assert r.committed == r.submitted == by_id[case_id].txns
            assert metrics_json(r) == metrics_json(planner), (
                wname, lookahead,
            )

    # Logic aborts keep the plan-equivalence contract.  On the
    # abort-heavy stream both abort-free modes re-bind readers past the
    # dead writers, commit the same set, stay CC-abort free, and
    # serialize byte-identical native metrics.
    planner_ah = report["abort-heavy/planner/det"]
    pipelined_ah = report["abort-heavy/pipelined/det"]
    for r in (planner_ah, pipelined_ah):
        assert r.cc_aborts == 0
        assert r.metrics.logic_aborted > 0
        assert r.committed < r.submitted
    assert metrics_json(planner_ah) == metrics_json(pipelined_ah)

    # A re-run of any case reproduces its record byte for byte.
    for result in results:
        again = run_case(result.case)
        assert json.dumps(
            make_record("e18", result, sha="pinned")
        ) == json.dumps(
            make_record("e18", again, sha="pinned")
        ), result.case.case_id

    rows = [
        {
            "workload": r.scenario,
            "mode": r.mode,
            "lookahead": r.metrics.lookahead,
            **count_columns(r),
            "cross_batch_reads": r.metrics.cross_batch_reads,
            "rebound_reads": r.metrics.rebound_reads,
        }
        for r in report.values()
    ]
    table_writer(
        "E18_pipeline",
        "pipelined planner vs sequential batch planner "
        f"({results[0].txns} txns, 4 workers, batch 64)",
        rows,
    )
    bench_document_writer("e18", results)
