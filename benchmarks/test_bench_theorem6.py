"""E8 — Theorem 6: efficient schedulers are non-maximal.

Runs the adaptive construction against the efficient multiversion
schedulers (MVTO, eager MVCG) and the exponential maximal oracle:

* soundness — no scheduler ever accepts when the polygraph is cyclic;
* maximality gap — the oracle accepts every acyclic instance, the
  efficient schedulers reject some of them.  That gap, measured, is the
  theorem: a polynomial-time scheduler cannot recognize a maximal class.
"""

import random

from repro.graphs.polygraph import random_polygraph
from repro.reductions.theorem6 import theorem6_adaptive_construction
from repro.schedulers.maximal import MaximalOracleScheduler
from repro.schedulers.mvcg import EagerMVCGScheduler
from repro.schedulers.mvto import MVTOScheduler


def _disjoint_polygraphs(n, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        poly = random_polygraph(
            rng.randint(4, 6), rng.randint(1, 4), rng.randint(1, 2), rng
        )
        if (
            poly.choices
            and poly.choices_node_disjoint()
            and poly.first_branch_graph().is_acyclic()
            and poly.arc_graph().is_acyclic()
        ):
            out.append(poly)
    return out


def test_bench_theorem6_maximality_gap(table_writer):
    polys = _disjoint_polygraphs(10, seed=0)

    def run_constructions():
        results = {}
        for name, factory in (
            ("mvto", MVTOScheduler),
            ("mvcg-eager", EagerMVCGScheduler),
        ):
            results[name] = [
                theorem6_adaptive_construction(p, factory) for p in polys
            ]
        return results

    results = run_constructions()

    rows = []
    stats = {
        name: {"accepted&acyclic": 0, "rejected&acyclic": 0, "unsound": 0}
        for name in results
    }
    stats["maximal-oracle"] = {
        "accepted&acyclic": 0,
        "rejected&acyclic": 0,
        "unsound": 0,
    }
    for idx, poly in enumerate(polys):
        acyclic = poly.is_acyclic()
        for name, runs in results.items():
            accepted = runs[idx].accepted
            if accepted and not acyclic:
                stats[name]["unsound"] += 1
            elif accepted:
                stats[name]["accepted&acyclic"] += 1
            elif acyclic:
                stats[name]["rejected&acyclic"] += 1
        schedule = results["mvto"][idx].schedule
        oracle = MaximalOracleScheduler(schedule.transaction_system())
        accepted = oracle.accepts(schedule)
        assert accepted == acyclic  # the oracle IS maximal
        if accepted:
            stats["maximal-oracle"]["accepted&acyclic"] += 1
        elif acyclic:
            stats["maximal-oracle"]["rejected&acyclic"] += 1
    for name, stat in stats.items():
        assert stat["unsound"] == 0
        rows.append({"scheduler": name, **stat})
    table_writer(
        "E8_theorem6",
        "adaptive construction: soundness and the maximality gap",
        rows,
    )
