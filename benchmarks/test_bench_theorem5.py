"""E7 — Theorem 5: maximal-scheduler membership is NP-hard.

Over random polygraphs, the forced-read construction ``s`` is MVSR — and
accepted by the maximal oracle scheduler — exactly when the polygraph is
acyclic.  Times the oracle's full run (its per-step completability test
is the NP-hard part).
"""

import random

from repro.classes.mvsr import is_mvsr
from repro.graphs.polygraph import random_polygraph
from repro.reductions.theorem5 import theorem5_schedule
from repro.schedulers.maximal import MaximalOracleScheduler


def _eligible(seed):
    rng = random.Random(seed)
    while True:
        poly = random_polygraph(
            rng.randint(3, 5), rng.randint(1, 4), rng.randint(1, 3), rng
        ).ensure_property_a()
        if poly.satisfies_theorem4_assumptions():
            return poly


def test_bench_theorem5_oracle(table_writer):
    polys = [_eligible(seed) for seed in range(12)]
    schedules = [theorem5_schedule(p) for p in polys]
    systems = [s.transaction_system() for s in schedules]

    def run_oracle():
        out = []
        for system, s in zip(systems, schedules):
            out.append(MaximalOracleScheduler(system).accepts(s))
        return out

    accepted = run_oracle()

    rows = []
    for poly, s, ok in zip(polys, schedules, accepted):
        acyclic = poly.is_acyclic()
        mvsr = is_mvsr(s)
        assert ok == acyclic == mvsr
        rows.append(
            {
                "polygraph": str(poly),
                "schedule_steps": len(s),
                "acyclic": acyclic,
                "MVSR": mvsr,
                "oracle_accepts": ok,
            }
        )
    table_writer(
        "E7_theorem5",
        "maximal oracle accepts s  ==  polygraph acyclic  ==  s in MVSR",
        rows,
    )
