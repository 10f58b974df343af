"""E6 — Theorem 4: OLS decision is NP-complete.

Two measurements:

* correctness: over random polygraphs, ``OLS({s1, s2})`` coincides with
  polygraph acyclicity (the reduction, both directions);
* scaling: exact OLS decision time on Theorem 4 instances as the
  polygraph grows, against the polynomial MVCSR test of the same
  schedules — the curves separate, which is the theorem's content.

Also ablates the two polygraph deciders (backtracking vs SAT encoding).
"""

import random
import time

from repro.classes.mvcsr import is_mvcsr
from repro.graphs.polygraph import random_polygraph
from repro.ols.decision import is_ols
from repro.reductions.polygraph_sat import polygraph_is_acyclic_sat
from repro.reductions.theorem4 import theorem4_schedules


def _eligible(n_nodes, n_arcs, n_choices, seed):
    rng = random.Random(seed)
    while True:
        poly = random_polygraph(n_nodes, n_arcs, n_choices, rng)
        poly = poly.ensure_property_a()
        if poly.satisfies_theorem4_assumptions():
            return poly


def test_bench_theorem4_equivalence(table_writer):
    polys = [_eligible(4, 3, 2, seed) for seed in range(12)]
    pairs = [theorem4_schedules(p) for p in polys]

    def decide_all():
        return [is_ols(list(pair)) for pair in pairs]

    verdicts = decide_all()

    rows = []
    for poly, pair, ols in zip(polys, pairs, verdicts):
        acyclic = poly.is_acyclic()
        sat_acyclic = polygraph_is_acyclic_sat(poly)
        assert ols == acyclic == sat_acyclic
        rows.append(
            {
                "polygraph": str(poly),
                "s1_steps": len(pair[0]),
                "s2_steps": len(pair[1]),
                "acyclic(backtrack)": acyclic,
                "acyclic(SAT)": sat_acyclic,
                "OLS": ols,
                "both MVCSR": is_mvcsr(pair[0]) and is_mvcsr(pair[1]),
            }
        )
    table_writer("E6_theorem4", "OLS({s1,s2}) == polygraph acyclicity", rows)


def test_bench_theorem4_scaling(table_writer):
    def scaling_run():
        rows = []
        for n_nodes in (3, 4, 5, 6):
            poly = _eligible(n_nodes, n_nodes - 1, 2, seed=n_nodes)
            s1, s2 = theorem4_schedules(poly)
            t0 = time.perf_counter()
            is_ols([s1, s2])
            ols_ms = 1e3 * (time.perf_counter() - t0)
            t0 = time.perf_counter()
            is_mvcsr(s1)
            is_mvcsr(s2)
            mvcsr_ms = 1e3 * (time.perf_counter() - t0)
            rows.append(
                {
                    "nodes": n_nodes,
                    "schedule_steps": len(s1),
                    "exact_OLS_ms": round(ols_ms, 2),
                    "poly_MVCSR_ms": round(mvcsr_ms, 2),
                }
            )
        return rows

    rows = scaling_run()
    table_writer(
        "E6_theorem4_scaling",
        "exact OLS vs polynomial MVCSR on growing instances",
        rows,
    )
