"""E10b — contention sweep: where multiversion pays off.

Sweeps hot-key skew and measures acceptance rates of the single-version
and multiversion scheduler families.  Expected shape: all rates fall with
contention, but the single-version family falls *faster*, so the
multiversion advantage (ratio of acceptance rates) widens — the paper's
argument for why MVCC is worth its bookkeeping.
"""

from repro.analysis.acceptance import acceptance_rates
from repro.schedulers.mvcg import MVCGScheduler
from repro.schedulers.polygraph_sched import PolygraphScheduler
from repro.schedulers.sgt import SGTScheduler
from repro.schedulers.twopl import TwoPhaseLocking
from repro.workloads.streams import schedule_stream

SKEWS = (0.0, 1.0, 2.0, 3.0)


def _lengths(schedule):
    return {t: len(schedule.projection(t)) for t in schedule.txn_ids}


def test_bench_contention_sweep(table_writer):
    streams = {
        skew: list(
            schedule_stream(
                50, 3, ["x", "y", "z", "u"], 2, seed=4, zipf_skew=skew
            )
        )
        for skew in SKEWS
    }

    def sweep():
        out = {}
        for skew, schedules in streams.items():
            reports = acceptance_rates(
                schedules,
                [
                    lambda s: TwoPhaseLocking(_lengths(s)),
                    lambda s: SGTScheduler(),
                    lambda s: PolygraphScheduler(),
                    lambda s: MVCGScheduler(),
                ],
            )
            out[skew] = {r.name: r.rate for r in reports}
        return out

    rates = sweep()

    rows = []
    for skew in SKEWS:
        r = rates[skew]
        advantage = r["mvcg"] / max(r["sgt"], 1e-9)
        rows.append(
            {
                "zipf_skew": skew,
                "2pl": round(r["2pl"], 3),
                "sgt(=CSR)": round(r["sgt"], 3),
                "polygraph": round(r["polygraph"], 3),
                "mvcg(=MVCSR)": round(r["mvcg"], 3),
                "mv_advantage (mvcg/sgt)": round(advantage, 2),
            }
        )
    table_writer(
        "E10b_contention", "acceptance under rising contention", rows
    )
    # The multiversion advantage does not shrink as contention rises.
    assert (
        rows[-1]["mv_advantage (mvcg/sgt)"]
        >= rows[0]["mv_advantage (mvcg/sgt)"]
    )
