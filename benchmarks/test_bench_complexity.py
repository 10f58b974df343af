"""E11 — polynomial vs NP-complete deciders: runtime scaling.

The paper's complexity theory as measurement: CSR and MVCSR (Theorem 1)
stay flat as schedules grow; exact VSR/MVSR blow up.  Also ablates the
two MVSR engines (choice-space search vs SAT encoding).
"""

import random
import time

from repro.analysis.complexity import scaling_measurements
from repro.classes.mvsr import is_mvsr
from repro.classes.sat_encodings import is_mvsr_sat
from repro.model.enumeration import random_schedule


def test_bench_decider_scaling(table_writer):
    rows = scaling_measurements(
        [2, 4, 6, 8, 12, 16], samples_per_size=3, seed=0
    )
    fmt = [
        {k: (round(v, 3) if isinstance(v, float) else v) for k, v in row.items()}
        for row in rows
    ]
    # The exact deciders cut off at large sizes; emit_table refuses
    # ragged rows, so declare the cutoff as an explicitly empty cell.
    headers = list(fmt[0].keys())
    fmt = [{h: row.get(h, "") for h in headers} for row in fmt]
    table_writer("E11_complexity", "decider runtime scaling (ms)", fmt)
    # The polynomial decider still answers at sizes where the exact ones
    # were already cut off (how fast is the table's business, not an
    # assertion's).
    large = fmt[-1]
    assert large["vsr_ms"] == ""
    assert isinstance(large["mvcsr_ms"], float)


def test_bench_mvsr_engine_ablation(table_writer):
    rng = random.Random(1)
    schedules = [
        random_schedule(n, ["x", "y", "z"], 3, rng)
        for n in (2, 3, 4, 5)
        for _ in range(3)
    ]

    def ablation():
        rows = []
        for s in schedules:
            t0 = time.perf_counter()
            a = is_mvsr(s)
            search_ms = 1e3 * (time.perf_counter() - t0)
            t0 = time.perf_counter()
            b = is_mvsr_sat(s)
            sat_ms = 1e3 * (time.perf_counter() - t0)
            assert a == b
            rows.append(
                {
                    "txns": len(s.txn_ids),
                    "steps": len(s),
                    "mvsr": a,
                    "choice_search_ms": round(search_ms, 3),
                    "sat_encoding_ms": round(sat_ms, 3),
                }
            )
        return rows

    rows = ablation()
    table_writer(
        "E11_mvsr_ablation", "MVSR engines: choice search vs SAT", rows
    )
