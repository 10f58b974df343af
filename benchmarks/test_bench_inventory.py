"""E12b — inventory workload: a hot ledger entity under the schedulers.

Every order transaction updates the shared shipped-ledger, so the ledger
serializes the workload under locking; this bench measures commit rates
and reconciliation-invariant preservation.
"""

from repro.schedulers.mvcg import EagerMVCGScheduler
from repro.schedulers.mvto import MVTOScheduler
from repro.schedulers.polygraph_sched import PolygraphScheduler
from repro.schedulers.sgt import SGTScheduler
from repro.schedulers.twopl import TwoPhaseLocking
from repro.storage.txn_manager import TransactionManager
from repro.workloads.inventory import InventoryWorkload


def _lengths(schedule):
    return {t: len(schedule.projection(t)) for t in schedule.txn_ids}


SCHEDULERS = [
    ("2pl", lambda s: TwoPhaseLocking(_lengths(s))),
    ("sgt", lambda s: SGTScheduler()),
    ("mvto", lambda s: MVTOScheduler()),
    ("mvcg-eager", lambda s: EagerMVCGScheduler()),
    ("polygraph", lambda s: PolygraphScheduler()),
]


def test_bench_inventory_ledger(table_writer):
    workload = InventoryWorkload(n_warehouses=4, n_orders=3, seed=9)
    system, programs = workload.system()
    schedules = [workload.schedule(system) for _ in range(40)]

    def run_all():
        stats = {}
        for name, factory in SCHEDULERS:
            committed = violations = 0
            for s in schedules:
                tm = TransactionManager(
                    factory(s), programs, workload.initial_state()
                )
                outcome = tm.run(s)
                if outcome.accepted:
                    committed += 1
                    if not workload.invariant_holds(outcome.final_state):
                        violations += 1
            stats[name] = (committed, violations)
        return stats

    stats = run_all()
    rows = []
    for name, (committed, violations) in stats.items():
        rows.append(
            {
                "scheduler": name,
                "offered": len(schedules),
                "committed": committed,
                "commit_rate": round(committed / len(schedules), 3),
                "reconciliation_violations": violations,
            }
        )
        assert violations == 0
    table_writer(
        "E12b_inventory", "hot-ledger inventory workload", rows
    )
    by_name = {r["scheduler"]: r for r in rows}
    assert by_name["polygraph"]["committed"] >= by_name["2pl"]["committed"]
