"""E2 — Theorem 1: the polynomial MVCG test against the definition.

Sweeps random schedule ensembles, reporting agreement between the MVCG
acyclicity test and the definitional (exponential) swap-reachability
decider, plus the measured MVCSR fraction.
"""

import random

from repro.classes.mvcsr import is_mvcsr, is_mvcsr_by_swaps
from repro.model.enumeration import random_schedule

SWEEP = [(2, 2), (2, 3), (3, 2)]
SAMPLES = 60


def _ensemble(n_txns, steps, seed=0):
    rng = random.Random(seed)
    return [
        random_schedule(n_txns, ["x", "y"], steps, rng)
        for _ in range(SAMPLES)
    ]


def test_bench_theorem1_mvcg_decider(table_writer):
    ensembles = {cfg: _ensemble(*cfg) for cfg in SWEEP}

    def run_all():
        return {
            cfg: [is_mvcsr(s) for s in schedules]
            for cfg, schedules in ensembles.items()
        }

    verdicts = run_all()

    rows = []
    for cfg, schedules in ensembles.items():
        fast = verdicts[cfg]
        slow = [is_mvcsr_by_swaps(s) for s in schedules]
        agree = sum(f == s for f, s in zip(fast, slow))
        rows.append(
            {
                "txns": cfg[0],
                "steps/txn": cfg[1],
                "samples": len(schedules),
                "mvcsr_frac": round(sum(fast) / len(fast), 3),
                "agreement_with_swaps": f"{agree}/{len(schedules)}",
            }
        )
    table_writer("E2_theorem1", "MVCG acyclicity vs swap reachability", rows)
    for row in rows:
        assert row["agreement_with_swaps"] == f"{SAMPLES}/{SAMPLES}"
