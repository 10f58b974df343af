"""E15 — online engine: abort/retry throughput and GC retention.

Runs the ``e15`` bench suite (:mod:`repro.bench`): open-ended bank and
inventory streams through the online engine (:mod:`repro.engine`) under
five schedulers with retry-on-abort semantics — the regime the paper's
schedulers were designed for but its reject-model cannot express.
Reports commit/abort/retry counts and the version footprint with GC on
vs off, and leaves both the committed txt table and the
``BENCH_e15.json`` record (the same document ``repro bench run
--suite e15`` produces).

Expected shape: every configuration preserves its workload's integrity
invariant (conservation / reconciliation) no matter which transactions
aborted, and the watermark GC holds the live version count near the
entity count while the no-GC footprint grows linearly with committed
writes.
"""

from repro.bench import get_suite, run_suite

SUITE = get_suite("e15")
SCHEDULERS = ["2pl", "sgt", "2v2pl", "mvto", "si"]


def test_bench_engine(
    table_writer, bench_document_writer, count_columns
):
    results = run_suite(SUITE)
    by_id = {r.case.case_id: r for r in results}

    rows = []
    for workload_name in ("bank", "inventory"):
        for scheduler_name in SCHEDULERS:
            # The native EngineMetrics ride along for drill-down
            # counters the uniform schema deliberately leaves
            # mode-specific.
            gc_on = by_id[f"{workload_name}/{scheduler_name}/gc"]
            gc_off = by_id[f"{workload_name}/{scheduler_name}/nogc"]
            m_on, m_off = gc_on.report.metrics, gc_off.report.metrics
            rows.append(
                {
                    "workload": workload_name,
                    "scheduler": scheduler_name,
                    **count_columns(gc_on.report),
                    "retries": m_on.retries,
                    "rate": round(m_on.commit_rate, 3),
                    "lat_max": m_on.latency.max,
                    "gc_pruned": m_on.gc.versions_pruned,
                    "versions(gc)": m_on.final_versions,
                    "versions(no-gc)": m_off.final_versions,
                    # The runner raises on a violated invariant, so a
                    # rendered row is a checked row.
                    "invariant": "ok",
                }
            )

            # Accounting closes: every attempt ends committed or
            # aborted, and every abort either retried or gave up.
            for m in (m_on, m_off):
                assert m.committed + m.gave_up <= gc_on.txns
                assert m.attempts == m.committed + m.aborted_total
                assert m.aborted_total == m.retries + m.gave_up
            # Retry semantics did their job: despite aborts, most of
            # the stream commits.
            assert m_on.committed >= 0.7 * gc_on.txns
            # Every commit carries a latency sample (E16 compares these).
            assert m_on.latency.count == m_on.committed
            # GC reduces retained versions on a write-heavy stream...
            assert m_on.final_versions < m_off.final_versions
            assert m_on.gc.versions_pruned > 0
            # ...down to near the entity count (bases + epoch tail only).
            assert m_on.final_versions <= 16

    table_writer(
        "E15_engine",
        "online engine: retry semantics and GC retention",
        rows,
    )
    bench_document_writer("e15", results)
