"""Audit overhead — continuous verification vs tracing alone.

Runs the ``audit`` bench suite (plain vs ``audit=True`` pairs, one per
execution mode) through the :mod:`repro.bench` harness, then measures
the ISSUE's acceptance pair directly through the Database API: the same
deterministic sharded-bank stream per mode run *traced-only* (a live
unbounded :class:`~repro.obs.Tracer`) and *traced+audited* (the same
tracer with the continuous-verification auditor subscribed).

Pinned claims:

* **audited == plain, logically**: deterministic tick-based throughput
  of every ``audit=True`` suite case equals its plain twin exactly —
  the auditor subscribes to the trace stream and consumes no ticks;
* **traced+audited within 25% of traced-only** on deterministic
  tick throughput, per mode (the acceptance bound; measured equality
  in practice);
* **every audited run certifies**: all four modes reconstruct and pass
  1-SR certification with zero violations, on the commit-order replay
  alone — the polygraph search never runs;
* **byte-identical verdicts**: two equal-seed audited runs per mode
  produce byte-identical ``AuditReport`` JSON.
"""

from repro.bench import committed_throughput, get_suite, run_suite
from repro.db import Database, RunConfig
from repro.obs import Tracer

SUITE = get_suite("audit")
N_TXNS = SUITE.case("sharded-bank/serial/plain").txns
MODES = ("serial", "parallel", "planner", "pipelined")

#: the per-mode deterministic configs of the suite's pairs, reused for
#: the direct traced-only vs traced+audited comparison.
MODE_CONFIG = {
    mode: dict(SUITE.case(f"sharded-bank/{mode}/plain").config)
    for mode in MODES
}
SCENARIO_PARAMS = dict(
    SUITE.case("sharded-bank/serial/plain").scenario_params
)


def _run(mode, *, audit):
    config = RunConfig(
        **MODE_CONFIG[mode],
        trace=Tracer(capacity=None),
        audit=audit,
    )
    return Database().run(
        "sharded-bank", config, txns=N_TXNS, **SCENARIO_PARAMS
    )


def test_bench_audit(table_writer, bench_document_writer):
    def run_all():
        suite_results = run_suite(SUITE)
        direct = {
            mode: {
                "traced": _run(mode, audit=False),
                "audited": _run(mode, audit=True),
                "audited2": _run(mode, audit=True),
            }
            for mode in MODES
        }
        return suite_results, direct

    suite_results, direct = run_all()
    by_id = {r.case.case_id: r for r in suite_results}

    rows = []
    for mode in MODES:
        plain = by_id[f"sharded-bank/{mode}/plain"].report
        audited_case = by_id[f"sharded-bank/{mode}/audited"].report
        traced = direct[mode]["traced"]
        audited = direct[mode]["audited"]

        # Logical overhead of audit=True is exactly zero: the auditor
        # rides the trace stream, off the tick clock.
        assert committed_throughput(audited_case) == (
            committed_throughput(plain)
        )
        # The acceptance bound: traced+audited within 25% of
        # traced-only on the deterministic tick throughput.
        assert committed_throughput(audited) >= (
            0.75 * committed_throughput(traced)
        )
        # Every audited run certifies, and the verdict is byte-stable.
        assert audited_case.audit is not None and audited_case.audit.ok
        assert audited.audit.ok and not audited.audit.violations
        assert audited.audit.tiers["replay"] == audited.audit.segments
        assert (
            audited.audit.as_json()
            == direct[mode]["audited2"].audit.as_json()
        )

        rows.append({
            "mode": mode,
            "txn/tick plain": committed_throughput(plain),
            "txn/tick audited": committed_throughput(audited_case),
            "txn/tick traced": committed_throughput(traced),
            "txn/tick traced+audit": committed_throughput(audited),
            "segments": audited.audit.segments,
            "certified": audited.audit.certified,
            "violations": len(audited.audit.violations),
        })

    table_writer(
        "EA1_audit_overhead",
        "continuous verification vs tracing alone "
        f"(sharded bank x{N_TXNS}, deterministic)",
        rows,
    )
    bench_document_writer("audit", suite_results)
