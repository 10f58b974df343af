"""E11 — polynomial vs NP-complete deciders: runtime scaling.

The paper's complexity theory as measurement: CSR and MVCSR (Theorem 1)
stay flat as schedules grow; exact VSR/MVSR blow up.  Also ablates the
two MVSR engines (choice-space search vs SAT encoding) by search effort
— polygraph choices tried vs DPLL decisions, counts that depend on the
schedule alone.
"""

import random

from repro.analysis.complexity import scaling_measurements
from repro.classes.mvsr import is_mvsr_fixed
from repro.classes.sat_encodings import mvsr_cnf
from repro.graphs.polygraph import SearchEffort
from repro.model.enumeration import random_schedule
from repro.sat.solver import solve_counted


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
            effort = SearchEffort()
            a = is_mvsr_fixed(s, {}, effort)  # is_mvsr, with the counter
            model, decisions = solve_counted(mvsr_cnf(s))
            assert a == (model is not None)
            rows.append(
                {
                    "txns": len(s.txn_ids),
                    "steps": len(s),
                    "mvsr": a,
                    "choice_search_choices": effort.tried,
                    "sat_encoding_decisions": decisions,
                }
            )
        return rows

    rows = ablation()
    table_writer(
        "E11_mvsr_ablation", "MVSR engines: choice search vs SAT", rows
    )
