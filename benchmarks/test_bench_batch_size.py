"""E18 — the batch planner by batch size.

Runs the ``e18`` bench suite (:mod:`repro.bench`): the identical stream
through the ``planner`` backend at batch sizes 16, 64 and 256, on the
two E17 workloads (the sharded bank and the read-mostly hot-key
scenario) and the abort-heavy stream.  Batch size is the planner's one
knob: a batch is planned, executed and settled before the next is
admitted, so a transaction waits out the rest of its batch — commit
latency in ticks is batching delay — and a larger batch settles (and
collects) less often.  The run leaves ``BENCH_e18.json`` next to the
txt table.

Pinned claims:

* **zero concurrency-control aborts** at every batch size;
* **batch size moves no answer**: per workload, the committed count
  and the final state are equal at every size — the planner realizes
  the serial execution in timestamp order whatever the batching, logic
  aborts included (what moves is how many reads re-bind in-batch past
  a dead writer: a reader in a later batch binds the survivor directly);
* **latency is batching delay**: ``ticks`` is one per admission plus
  one per settle, and the mean commit latency grows with the batch;
* a re-run of any case reproduces its bench record byte for byte.
"""

import json

from repro.bench import get_suite, make_record, run_case, run_suite

SUITE = get_suite("e18")
WORKLOADS = ["sharded-bank", "read-mostly", "abort-heavy"]


def test_bench_batch_size(
    table_writer, bench_document_writer, count_columns
):
    results = run_suite(SUITE)
    rows = []
    for wname in WORKLOADS:
        runs = [r for r in results if r.case.scenario == wname]
        sizes = [r.case.config["batch_size"] for r in runs]
        assert sizes == sorted(sizes) and len(sizes) == 3, sizes
        answers = set()
        latencies = []
        for result in runs:
            r = result.report
            batch_size = result.case.config["batch_size"]
            assert r.cc_aborts == 0, (wname, batch_size)
            assert r.submitted == result.txns
            batches = -(-result.txns // batch_size)
            assert r.metrics.batches == batches
            assert r.metrics.ticks == result.txns + batches
            if wname == "abort-heavy":
                assert 0 < r.metrics.logic_aborted
                assert r.committed == r.submitted - r.metrics.logic_aborted
            else:
                assert r.committed == r.submitted
            answers.add(
                (r.committed, json.dumps(sorted(r.final_state.items())))
            )
            latencies.append(r.latency.mean)
            rows.append({
                "workload": wname,
                "batch_size": batch_size,
                "batches": batches,
                **count_columns(r),
                "rebound_reads": r.metrics.rebound_reads,
            })
        assert len(answers) == 1, wname
        assert latencies == sorted(latencies), (wname, latencies)
        assert latencies[0] < latencies[-1], (wname, latencies)

    # A re-run of any case reproduces its record byte for byte.
    for result in results:
        again = run_case(result.case)
        assert json.dumps(
            make_record("e18", result, sha="pinned")
        ) == json.dumps(
            make_record("e18", again, sha="pinned")
        ), result.case.case_id

    table_writer(
        "E18_batch_size",
        "batch planner by batch size "
        f"({results[0].txns} txns, 4 workers)",
        rows,
    )
    bench_document_writer("e18", results)
