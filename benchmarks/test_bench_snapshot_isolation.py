"""E14 — snapshot isolation through the 1985 lens.

SI is the multiversion algorithm industry actually shipped; measured
against the paper's correctness notion it is *incomparable* with the
scheduler hierarchy: it accepts schedules outside MVSR (write skew and
friends).  The measured anomaly rate is small — a couple of percent of
accepted schedules on random streams — which is precisely why SI
survived in production for years before the anomaly literature; but it
is reliably non-zero, and the canonical write-skew witness fails MVSR
outright.
"""

from repro.classes.mvsr import is_mvsr
from repro.schedulers.snapshot import (
    SnapshotIsolationScheduler,
    write_skew_schedule,
)
from repro.workloads.streams import schedule_stream


def _si(schedule):
    lengths = {t: len(schedule.projection(t)) for t in schedule.txn_ids}
    return SnapshotIsolationScheduler(lengths)


def _pool(steps_per_txn):
    schedules = []
    for seed in range(4):
        schedules.extend(
            schedule_stream(80, 3, ["x", "y"], steps_per_txn, seed=seed)
        )
    return schedules


def test_bench_si_anomalies(table_writer):
    pools = {steps: _pool(steps) for steps in (2, 3)}

    def measure():
        out = {}
        for steps, schedules in pools.items():
            accepted = [s for s in schedules if _si(s).accepts(s)]
            anomalies = [s for s in accepted if not is_mvsr(s)]
            out[steps] = (len(schedules), len(accepted), len(anomalies))
        return out

    results = measure()

    rows = []
    total_anomalies = 0
    for steps, (total, accepted, anomalies) in results.items():
        total_anomalies += anomalies
        rows.append(
            {
                "steps/txn": steps,
                "schedules": total,
                "si_accepted": accepted,
                "non_mvsr_among_accepted": anomalies,
                "anomaly_rate": round(anomalies / max(1, accepted), 4),
            }
        )
    # The canonical witness: write skew accepted by SI, not MVSR.
    skew_schedule = write_skew_schedule()
    assert _si(skew_schedule).accepts(skew_schedule)
    assert not is_mvsr(skew_schedule)
    rows.append(
        {
            "steps/txn": "write-skew witness",
            "schedules": 1,
            "si_accepted": 1,
            "non_mvsr_among_accepted": 1,
            "anomaly_rate": 1.0,
        }
    )
    table_writer(
        "E14_snapshot_isolation",
        "SI acceptance vs the paper's correctness notion",
        rows,
    )
    # Anomalies are rare but real.
    assert total_anomalies > 0
    for row in rows[:-1]:
        assert row["anomaly_rate"] < 0.1
