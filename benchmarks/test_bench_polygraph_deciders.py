"""E6b — polygraph-decider ablation: backtracking vs SAT encoding.

The package carries two exact deciders for the NP-complete polygraph
acyclicity problem.  This bench compares them across instance families:
random polygraphs and the structured outputs of the SAT reduction
(satisfiable and unsatisfiable seeds).  Expected shape: both agree
everywhere; the backtracker's forced-branch propagation wins on the
structured instances, the SAT encoding is competitive on small random
ones.
"""

import random
import time

from repro.graphs.polygraph import random_polygraph
from repro.reductions.polygraph_sat import polygraph_is_acyclic_sat
from repro.reductions.sat_to_polygraph import monotone_sat_to_polygraph
from repro.sat.cnf import CNF, neg, pos


def _families():
    rng = random.Random(0)
    families = {}
    families["random-small"] = [
        random_polygraph(5, 4, 3, rng) for _ in range(10)
    ]
    families["random-medium"] = [
        random_polygraph(8, 7, 5, rng) for _ in range(10)
    ]
    sat_formula = CNF([(pos("a"), pos("b")), (neg("a"), neg("b"))])
    unsat_formula = CNF(
        [(pos("a"), pos("a")), (pos("b"), pos("b")), (neg("a"), neg("b"))]
    )
    families["reduction-sat"] = [
        monotone_sat_to_polygraph(sat_formula).polygraph
    ]
    families["reduction-unsat"] = [
        monotone_sat_to_polygraph(unsat_formula).polygraph
    ]
    return families


def test_bench_polygraph_decider_ablation(table_writer):
    families = _families()

    def run_ablation():
        rows = []
        for name, polys in families.items():
            bt_time = sat_time = 0.0
            agree = 0
            for poly in polys:
                t0 = time.perf_counter()
                a = poly.is_acyclic()
                bt_time += time.perf_counter() - t0
                t0 = time.perf_counter()
                b = polygraph_is_acyclic_sat(poly)
                sat_time += time.perf_counter() - t0
                agree += a == b
            rows.append(
                {
                    "family": name,
                    "instances": len(polys),
                    "agreement": f"{agree}/{len(polys)}",
                    "backtrack_ms": round(1e3 * bt_time / len(polys), 2),
                    "sat_ms": round(1e3 * sat_time / len(polys), 2),
                }
            )
        return rows

    rows = run_ablation()
    table_writer(
        "E6b_polygraph_deciders", "backtracking vs SAT encoding", rows
    )
    for row in rows:
        assert row["agreement"] == f"{row['instances']}/{row['instances']}"
