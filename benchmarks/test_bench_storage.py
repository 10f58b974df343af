"""E12 — the storage engine under different schedulers.

Runs the banking workload through scheduler + multiversion store,
reporting commit rates and invariant preservation: every accepted
execution preserves the conservation invariant, and the multiversion
schedulers commit more of the offered interleavings than locking.
"""

from repro.schedulers.mv2pl import TwoVersionTwoPL
from repro.schedulers.mvcg import EagerMVCGScheduler
from repro.schedulers.mvto import MVTOScheduler
from repro.schedulers.sgt import SGTScheduler
from repro.schedulers.twopl import TwoPhaseLocking
from repro.storage.txn_manager import TransactionManager
from repro.workloads.bank import BankWorkload, bank_programs


def _lengths(schedule):
    return {t: len(schedule.projection(t)) for t in schedule.txn_ids}


SCHEDULERS = [
    ("2pl", lambda s: TwoPhaseLocking(_lengths(s))),
    ("sgt", lambda s: SGTScheduler()),
    ("2v2pl", lambda s: TwoVersionTwoPL(_lengths(s))),
    ("mvto", lambda s: MVTOScheduler()),
    ("mvcg-eager", lambda s: EagerMVCGScheduler()),
]


def test_bench_bank_throughput(table_writer):
    workload = BankWorkload(
        n_accounts=8, n_transfers=2, n_audits=2, seed=5
    )
    system, amounts = workload.system()
    programs = bank_programs(amounts)
    schedules = [workload.schedule(system) for _ in range(40)]

    def run_all():
        stats = {}
        for name, factory in SCHEDULERS:
            committed = 0
            violations = 0
            versions = 0
            for s in schedules:
                tm = TransactionManager(
                    factory(s), programs, workload.initial_state()
                )
                outcome = tm.run(s)
                if outcome.accepted:
                    committed += 1
                    versions += outcome.execution.store.version_count()
                    if not workload.invariant_holds(outcome.final_state):
                        violations += 1
            stats[name] = (committed, violations, versions)
        return stats

    stats = run_all()
    rows = []
    for name, (committed, violations, versions) in stats.items():
        rows.append(
            {
                "scheduler": name,
                "offered": len(schedules),
                "committed": committed,
                "commit_rate": round(committed / len(schedules), 3),
                "invariant_violations": violations,
                "versions_per_commit": round(versions / committed, 1)
                if committed
                else "-",
            }
        )
        assert violations == 0
    table_writer(
        "E12_storage", "bank workload through scheduler + MV store", rows
    )
    by_name = {r["scheduler"]: r for r in rows}
    assert by_name["mvcg-eager"]["committed"] >= by_name["2pl"]["committed"]
