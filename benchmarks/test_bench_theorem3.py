"""E4 — Theorem 3: MVCSR ⊆ MVSR, and how strict the inclusion is.

Counts, over random ensembles, the MVCSR and MVSR fractions and verifies
the inclusion sample by sample (with the constructed version function
validated).  Times the inclusion verification pass.
"""

import random

from repro.classes.mvcsr import is_mvcsr, mvcsr_version_function
from repro.classes.mvsr import is_mvsr
from repro.model.enumeration import random_schedule

SWEEP = [(2, 3), (3, 2), (3, 3)]
SAMPLES = 50


def _ensemble(n_txns, steps, seed=0):
    rng = random.Random(seed)
    return [
        random_schedule(n_txns, ["x", "y"], steps, rng)
        for _ in range(SAMPLES)
    ]


def test_bench_theorem3_inclusion(table_writer):
    ensembles = {cfg: _ensemble(*cfg) for cfg in SWEEP}

    def verify_all():
        out = {}
        for cfg, schedules in ensembles.items():
            mvcsr = mvsr = 0
            for s in schedules:
                in_mvcsr = is_mvcsr(s)
                in_mvsr = is_mvsr(s)
                assert not in_mvcsr or in_mvsr  # Theorem 3
                if in_mvcsr:
                    vf = mvcsr_version_function(s)
                    vf.validate(s)
                mvcsr += in_mvcsr
                mvsr += in_mvsr
            out[cfg] = (mvcsr, mvsr)
        return out

    counts = verify_all()
    rows = [
        {
            "txns": cfg[0],
            "steps/txn": cfg[1],
            "samples": SAMPLES,
            "mvcsr": counts[cfg][0],
            "mvsr": counts[cfg][1],
            "strictness (mvsr - mvcsr)": counts[cfg][1] - counts[cfg][0],
        }
        for cfg in SWEEP
    ]
    table_writer("E4_theorem3", "MVCSR ⊆ MVSR with strictness gap", rows)
    assert any(row["strictness (mvsr - mvcsr)"] > 0 for row in rows)
