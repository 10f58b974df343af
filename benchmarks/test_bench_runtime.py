"""E16 — parallel shard runtime vs the serial engine, in counts.

Runs the ``e16`` bench suite (:mod:`repro.bench`): the sharded bank
scenario through the parallel runtime (:mod:`repro.runtime`) across
worker counts and group-commit batch sizes, against the PR 1 serial
engine (:mod:`repro.engine`) as baseline — same stream, same scheduler,
same retry policy.  Both paths go through the typed Database API, so
the columns compared here are the guaranteed cross-mode schema; the run
also leaves ``BENCH_e16.json`` (the ``repro bench run --suite e16``
document).

Expected shape: the win comes from the execution model.  Whole-
transaction tasks are conflict-free inside a domain where the serial
driver's step interleaving provokes aborts — at 4 workers the runtime
aborts less than half as often as the serial engine on the same stream
(mvto: 41 or 25 attempts against 272; si: none against 209) while
preserving conservation, and commit latency (in scheduler ticks) stays
comparable.  What that is worth in seconds is ``benchmarks/perf``'s
question (``oltp-contended``, ``sharded-2pc``), not this table's.
"""

from repro.bench import get_suite, run_suite

SUITE = get_suite("e16")
SCHEDULERS = ["mvto", "si"]
WORKER_COUNTS = [1, 2, 4]
BATCH_SIZES = [1, 16]


def test_bench_runtime(
    table_writer, bench_document_writer, count_columns
):
    results = run_suite(SUITE)
    report = {r.case.case_id: r.report for r in results}

    rows = []
    for name in SCHEDULERS:
        serial = report[f"serial/{name}"]
        rows.append({
            "scheduler": name, "mode": "serial-engine",
            "workers": "-", "batch": "-", **count_columns(serial),
        })
        for workers in WORKER_COUNTS:
            for batch in BATCH_SIZES:
                m = report[f"{name}/w{workers}/b{batch}/det"]
                rows.append({
                    "scheduler": name, "mode": "runtime",
                    "workers": workers, "batch": batch,
                    **count_columns(m),
                })
                # committed + gave_up == submitted: a short commit
                # count is an exhausted retry budget, never a drop.
                assert m.committed + m.gave_up == m.submitted

        # The headline claim, as a count that repeats exactly: at 4
        # workers the execution model provokes less than half the serial
        # engine's aborts.
        for batch in BATCH_SIZES:
            m = report[f"{name}/w4/b{batch}/det"]
            assert 2 * m.cc_aborts <= serial.cc_aborts, (
                name, batch, m.cc_aborts, serial.cc_aborts,
            )

    table_writer(
        "E16_runtime",
        "parallel shard runtime vs serial engine "
        f"({results[0].txns} txns, sharded bank)",
        rows,
    )
    bench_document_writer("e16", results)
