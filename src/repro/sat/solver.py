"""A DPLL SAT solver with unit propagation and activity branching.

Self-contained (no external solver, no network): iterative DPLL over the
integer clause form, with

* unit propagation via two-literal watching,
* pure-literal elimination at the root,
* a dynamic branching heuristic (occurrence counts in shortest clauses).

This is intentionally compact rather than industrial: the reproduction
uses it to decide polygraph acyclicity (via
:func:`repro.reductions.polygraph_sat.polygraph_acyclicity_cnf`) and the
MVSR/VSR order encodings on instances with a few hundred variables, which
it handles easily.  The brute-force reference solver cross-checks it in
the tests.
"""

from __future__ import annotations

from typing import Mapping

from repro.sat.cnf import CNF, Var


def solve(formula: CNF) -> Mapping[Var, bool] | None:
    """Return a satisfying assignment, or None if unsatisfiable.

    Variables that never occur in a clause are absent from the returned
    assignment; variables eliminated as pure or unconstrained are assigned
    their forced/default value.
    """
    return solve_counted(formula)[0]


def solve_counted(formula: CNF) -> tuple[Mapping[Var, bool] | None, int]:
    """:func:`solve`, plus the number of decisions the search made.

    A decision is a branch literal picked or flipped — the solver's
    search effort, a function of the formula alone, which is what the
    hardness tables report.
    """
    int_clauses, index = formula.to_ints()
    model, decisions = _solve_ints(int_clauses, len(index))
    if model is None:
        return None, decisions
    names = {k: v for v, k in index.items()}
    return (
        {names[k]: model[k] for k in range(1, len(index) + 1)},
        decisions,
    )


def is_satisfiable(formula: CNF) -> bool:
    """Decision form of :func:`solve`."""
    return solve(formula) is not None


def _solve_ints(
    clauses: list[list[int]], n_vars: int
) -> tuple[dict[int, bool] | None, int]:
    """DPLL core on integer clauses: (var -> bool or None, decisions)."""
    # Preprocess: drop tautologies, deduplicate literals, detect empties.
    processed: list[list[int]] = []
    for clause in clauses:
        seen: set[int] = set()
        tautology = False
        for lit in clause:
            if -lit in seen:
                tautology = True
                break
            seen.add(lit)
        if tautology:
            continue
        if not seen:
            return None, 0
        processed.append(sorted(seen, key=abs))
    clauses = processed

    assignment: dict[int, bool] = {}
    # trail holds assigned literals in order; level_marks holds decision points.
    trail: list[int] = []
    level_marks: list[int] = []
    # watch lists: literal -> clause indices watching it
    watches: dict[int, list[int]] = {}
    watched: list[list[int]] = []

    def lit_value(lit: int) -> bool | None:
        var = abs(lit)
        if var not in assignment:
            return None
        return assignment[var] == (lit > 0)

    def enqueue(lit: int) -> bool:
        value = lit_value(lit)
        if value is not None:
            return value
        assignment[abs(lit)] = lit > 0
        trail.append(lit)
        return True

    for ci, clause in enumerate(clauses):
        if len(clause) == 1:
            if not enqueue(clause[0]):
                return None, 0
            watched.append(clause[:1] * 2)
            continue
        watched.append([clause[0], clause[1]])
        watches.setdefault(clause[0], []).append(ci)
        watches.setdefault(clause[1], []).append(ci)

    def propagate(start: int) -> bool:
        """Propagate all literals on the trail from index ``start``."""
        head = start
        while head < len(trail):
            lit = trail[head]
            head += 1
            falsified = -lit
            watching = watches.get(falsified, [])
            i = 0
            while i < len(watching):
                ci = watching[i]
                w = watched[ci]
                # Ensure w[0] is the other watch.
                if w[0] == falsified:
                    w[0], w[1] = w[1], w[0]
                if lit_value(w[0]) is True:
                    i += 1
                    continue
                # Look for a replacement watch.
                replaced = False
                for cand in clauses[ci]:
                    if cand in (w[0], w[1]):
                        continue
                    if lit_value(cand) is not False:
                        w[1] = cand
                        watches.setdefault(cand, []).append(ci)
                        watching[i] = watching[-1]
                        watching.pop()
                        replaced = True
                        break
                if replaced:
                    continue
                # Clause is unit (or conflicting) on w[0].
                if not enqueue(w[0]):
                    return False
                i += 1
        return True

    # Pure-literal elimination at the root (cheap, helps structured formulas).
    polarity_seen: dict[int, set[bool]] = {}
    for clause in clauses:
        for lit in clause:
            polarity_seen.setdefault(abs(lit), set()).add(lit > 0)
    for var, pols in polarity_seen.items():
        if len(pols) == 1 and var not in assignment:
            enqueue(var if True in pols else -var)

    if not propagate(0):
        return None, 0

    def pick_branch_literal() -> int | None:
        """Most frequent literal among the shortest unresolved clauses."""
        best_len = None
        counts: dict[int, int] = {}
        for ci, clause in enumerate(clauses):
            unassigned: list[int] = []
            satisfied = False
            for lit in clause:
                value = lit_value(lit)
                if value is True:
                    satisfied = True
                    break
                if value is None:
                    unassigned.append(lit)
            if satisfied or not unassigned:
                continue
            if best_len is None or len(unassigned) < best_len:
                best_len = len(unassigned)
                counts = {}
            if len(unassigned) == best_len:
                for lit in unassigned:
                    counts[lit] = counts.get(lit, 0) + 1
        if not counts:
            return None
        return max(counts, key=lambda l: (counts[l], -abs(l)))

    # Iterative DPLL with chronological backtracking.
    decisions: list[int] = []  # the literal decided at each level
    tried_flip: list[bool] = []
    n_decisions = 0

    while True:
        branch = pick_branch_literal()
        if branch is None:
            # All clauses satisfied; complete the assignment with defaults.
            model = dict(assignment)
            for var in range(1, n_vars + 1):
                model.setdefault(var, False)
            return model, n_decisions
        level_marks.append(len(trail))
        decisions.append(branch)
        tried_flip.append(False)
        n_decisions += 1
        enqueue(branch)
        while not propagate(level_marks[-1]):
            # Conflict: backtrack to the most recent unflipped decision.
            while tried_flip and tried_flip[-1]:
                mark = level_marks.pop()
                decisions.pop()
                tried_flip.pop()
                for lit in trail[mark:]:
                    del assignment[abs(lit)]
                del trail[mark:]
            if not tried_flip:
                return None, n_decisions
            mark = level_marks[-1]
            for lit in trail[mark:]:
                del assignment[abs(lit)]
            del trail[mark:]
            decisions[-1] = -decisions[-1]
            tried_flip[-1] = True
            n_decisions += 1
            enqueue(decisions[-1])
