"""The DPLL solver, cross-checked against brute force."""

import itertools
import random

from repro.sat.brute import count_models, solve_bruteforce
from repro.sat.cnf import CNF, neg, pos
from repro.sat.solver import is_satisfiable, solve, solve_counted


class TestBasics:
    def test_empty_formula_sat(self):
        assert solve(CNF()) == {}

    def test_empty_clause_unsat(self):
        assert solve(CNF.of([[]])) is None

    def test_unit(self):
        model = solve(CNF.of([[pos("a")]]))
        assert model == {"a": True}

    def test_contradiction(self):
        assert solve(CNF.of([[pos("a")], [neg("a")]])) is None

    def test_tautological_clause_dropped(self):
        model = solve(CNF.of([[pos("a"), neg("a")], [pos("b")]]))
        assert model is not None and model["b"] is True

    def test_model_satisfies(self):
        f = CNF.of(
            [
                [pos("a"), pos("b"), pos("c")],
                [neg("a"), neg("b")],
                [neg("b"), neg("c")],
                [pos("b"), neg("c")],
            ]
        )
        model = solve(f)
        assert model is not None
        assert f.evaluate(model)

    def test_pigeonhole_2_into_1_unsat(self):
        # p_ij: pigeon i in hole j; 2 pigeons, 1 hole.
        f = CNF.of(
            [
                [pos(("p", 1, 1))],
                [pos(("p", 2, 1))],
                [neg(("p", 1, 1)), neg(("p", 2, 1))],
            ]
        )
        assert solve(f) is None

    def test_pigeonhole_4_into_3_unsat(self):
        f = CNF()
        holes = range(3)
        pigeons = range(4)
        for i in pigeons:
            f.clauses.append(tuple(pos(("p", i, j)) for j in holes))
        for j in holes:
            for i1, i2 in itertools.combinations(pigeons, 2):
                f.add_clause(neg(("p", i1, j)), neg(("p", i2, j)))
        assert solve(f) is None


class TestRandomCrossCheck:
    def test_agrees_with_bruteforce(self):
        rng = random.Random(0)
        for _ in range(400):
            n_vars = rng.randint(1, 6)
            variables = [f"v{k}" for k in range(n_vars)]
            clauses = []
            for _ in range(rng.randint(1, 10)):
                width = rng.randint(1, 3)
                clause = tuple(
                    (rng.choice(variables), rng.random() < 0.5)
                    for _ in range(width)
                )
                clauses.append(clause)
            f = CNF(clauses)
            brute = solve_bruteforce(f)
            model = solve(f)
            assert (model is None) == (brute is None)
            if model is not None:
                full = dict(model)
                for v in f.variables:
                    full.setdefault(v, False)
                assert f.evaluate(full)

    def test_count_models_sanity(self):
        f = CNF.of([[pos("a"), pos("b")]])
        assert count_models(f) == 3

    def test_decisions_are_counted(self):
        # Units and pure literals settle without a decision ...
        model, decisions = solve_counted(
            CNF.of([[pos("a")], [neg("a"), pos("b")]])
        )
        assert model == {"a": True, "b": True} and decisions == 0
        assert solve_counted(CNF.of([[pos("a")], [neg("a")]])) == (None, 0)
        # ... a formula with both polarities everywhere needs at least one.
        xor = CNF.of([[pos("a"), pos("b")], [neg("a"), neg("b")]])
        model, decisions = solve_counted(xor)
        assert model is not None and decisions >= 1
        assert solve_counted(xor) == (model, decisions)
        assert solve(xor) == model

    def test_is_satisfiable_decision(self):
        assert is_satisfiable(CNF.of([[pos("a")]]))
        assert not is_satisfiable(CNF.of([[pos("a")], [neg("a")]]))
