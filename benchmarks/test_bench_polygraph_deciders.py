"""E6b — polygraph-decider ablation: backtracking vs SAT encoding.

The package carries two exact deciders for the NP-complete polygraph
acyclicity problem.  This bench compares them across instance families:
random polygraphs and the structured outputs of the SAT reduction
(satisfiable and unsatisfiable seeds).  Effort is counted, not timed:
choices tried by the backtracker, decisions made by the DPLL solver on
the encoding — functions of the instance alone, so the table is
byte-stable.  Expected shape: both agree everywhere; the backtracker
settles every family in a handful of choices (propagation forces most
of them), while the encoding's cubic transitivity clauses cost the SAT
side more decisions as instances grow — except where unit propagation
refutes the formula before the first decision.
"""

import random

from repro.graphs.polygraph import SearchEffort, random_polygraph
from repro.reductions.polygraph_sat import polygraph_acyclicity_cnf
from repro.reductions.sat_to_polygraph import monotone_sat_to_polygraph
from repro.sat.cnf import CNF, neg, pos
from repro.sat.solver import solve_counted


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
            effort = SearchEffort()
            decisions = agree = 0
            for poly in polys:
                a = poly.is_acyclic(effort)
                model, decided = solve_counted(polygraph_acyclicity_cnf(poly))
                decisions += decided
                agree += a == (model is not None)
            rows.append(
                {
                    "family": name,
                    "instances": len(polys),
                    "agreement": f"{agree}/{len(polys)}",
                    "backtrack_choices": round(effort.tried / len(polys), 1),
                    "sat_decisions": round(decisions / len(polys), 1),
                }
            )
        return rows

    rows = run_ablation()
    table_writer(
        "E6b_polygraph_deciders",
        "backtracking vs SAT encoding (search effort per instance)",
        rows,
    )
    for row in rows:
        assert row["agreement"] == f"{row['instances']}/{row['instances']}"
