"""E10 — scheduler acceptance rates: the paper's performance claim.

"The set of schedules output by an algorithm is considered a measure of
its performance" (§1).  Measures acceptance rates of every scheduler over
common random streams at two contention levels, against the class
ceilings (CSR, MVCSR, MVSR).  Expected shape:

    2PL <= SGT(=CSR) <= {2V2PL, MVTO, eager-MVCG} <= MVCG(=MVCSR) <= MVSR

with the multiversion schedulers strictly ahead of locking under
contention, and the OLS gap (eager < clairvoyant MVCG) visible.
"""

from repro.analysis.acceptance import acceptance_rates, class_rates
from repro.schedulers.maximal import MaximalOracleScheduler
from repro.schedulers.mv2pl import TwoVersionTwoPL
from repro.schedulers.mvcg import EagerMVCGScheduler, MVCGScheduler
from repro.schedulers.mvto import MVTOScheduler
from repro.schedulers.polygraph_sched import PolygraphScheduler
from repro.schedulers.sgt import SGTScheduler
from repro.schedulers.twopl import TwoPhaseLocking
from repro.workloads.streams import schedule_stream


def _lengths(schedule):
    return {t: len(schedule.projection(t)) for t in schedule.txn_ids}


FACTORIES = [
    lambda s: TwoPhaseLocking(_lengths(s)),
    lambda s: SGTScheduler(),
    lambda s: TwoVersionTwoPL(_lengths(s)),
    lambda s: MVTOScheduler(),
    lambda s: EagerMVCGScheduler(),
    lambda s: PolygraphScheduler(),
    lambda s: MVCGScheduler(),
    lambda s: MaximalOracleScheduler(s.transaction_system()),
]


def test_bench_scheduler_acceptance(table_writer):
    streams = {
        "uniform": list(schedule_stream(60, 3, ["x", "y", "z"], 2, seed=0)),
        "hot-key": list(
            schedule_stream(60, 3, ["x", "y", "z"], 2, seed=0, zipf_skew=2.0)
        ),
    }

    def run_all():
        return {
            name: acceptance_rates(schedules, FACTORIES)
            for name, schedules in streams.items()
        }

    reports = run_all()

    rows = []
    for name, schedules in streams.items():
        ceilings = class_rates(schedules)
        by_name = {r.name: r for r in reports[name]}
        row = {"stream": name}
        for scheduler in (
            "2pl",
            "sgt",
            "2v2pl",
            "mvto",
            "mvcg-eager",
            "polygraph",
            "mvcg",
            "maximal",
        ):
            row[scheduler] = round(by_name[scheduler].rate, 3)
        row["|csr|"] = round(ceilings["csr"], 3)
        row["|mvcsr|"] = round(ceilings["mvcsr"], 3)
        row["|mvsr|"] = round(ceilings["mvsr"], 3)
        rows.append(row)

        assert row["2pl"] <= row["sgt"] + 1e-9
        assert abs(row["sgt"] - row["|csr|"]) < 1e-9
        assert abs(row["mvcg"] - row["|mvcsr|"]) < 1e-9
        assert row["mvcg-eager"] <= row["polygraph"] + 1e-9
        assert row["polygraph"] <= row["|mvsr|"] + 1e-9
        assert row["mvto"] <= row["|mvsr|"] + 1e-9
        assert row["maximal"] <= row["|mvsr|"] + 1e-9
        # The motivating claim: multiversion beats locking.
        assert row["mvcg-eager"] > row["2pl"]
    table_writer("E10_schedulers", "acceptance rates vs class ceilings", rows)
