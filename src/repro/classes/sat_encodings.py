"""SAT encodings of MVSR and pair-OLS decisions.

The DFS deciders in :mod:`repro.classes.mvsr` and :mod:`repro.ols` are
fine for small instances but drown on the Theorem 4/5 constructions
produced from full SAT-reduction polygraphs (dozens of transactions).
These encodings compile the same questions to CNF for the package's DPLL
solver, whose unit propagation handles the long forced chains of those
instances far better than naive order enumeration:

* ``is_mvsr_sat``: a total order of transactions (order variables with
  transitivity clauses) plus per-read source selection, constrained so
  each selected source is realizable (its write precedes the read in
  ``s``) and is the last writer of the entity before the reader.

* ``is_ols_pair_sat``: two independent order-variable families — one per
  schedule — sharing the source-selection variables of the reads in the
  common prefix: precisely the OLS requirement that one version function
  on the prefix extends to serializing version functions of both.

Both are cross-checked against the search deciders on exhaustive small
inputs in the tests.
"""

from __future__ import annotations

from repro.model.schedules import Schedule, T_INIT
from repro.model.steps import Entity, TxnId
from repro.sat.cnf import CNF, Lit
from repro.sat.solver import solve


def _profiles(core: Schedule):
    """Per txn: non-own reads [(entity, pos)], and the full write sets."""
    reads: dict[TxnId, list[tuple[Entity, int]]] = {}
    writes: dict[TxnId, set[Entity]] = {}
    for t in core.txn_ids:
        own: set[Entity] = set()
        r: list[tuple[Entity, int]] = []
        w: set[Entity] = set()
        for i in core.step_indices_of(t):
            step = core[i]
            if step.is_write:
                own.add(step.entity)
                w.add(step.entity)
            elif step.entity not in own:
                r.append((step.entity, i))
        reads[t] = r
        writes[t] = w
    return reads, writes


def _writers_of(core: Schedule) -> dict[Entity, list[TxnId]]:
    out: dict[Entity, list[TxnId]] = {}
    for e in core.entities:
        ws: list[TxnId] = []
        for w in core.writes_of(e):
            if core[w].txn not in ws:
                ws.append(core[w].txn)
        out[e] = ws
    return out


def _realizable_sources(core: Schedule, read_pos: int) -> list[TxnId]:
    """Sources with a write before the read in ``s``, latest-first + T0."""
    entity = core[read_pos].entity
    out: list[TxnId] = []
    for w in range(read_pos - 1, -1, -1):
        step = core[w]
        if (
            step.is_write
            and step.entity == entity
            and step.txn != core[read_pos].txn
            and step.txn not in out
        ):
            out.append(step.txn)
    out.append(T_INIT)
    return out


class _Encoder:
    """Shared clause builder for one schedule under one order-var family."""

    def __init__(self, cnf: CNF, core: Schedule, tag: str) -> None:
        self.cnf = cnf
        self.core = core
        self.tag = tag
        self.txns = list(core.txn_ids)
        self._canon = {t: i for i, t in enumerate(self.txns)}

    def before(self, u: TxnId, v: TxnId) -> Lit:
        """Literal meaning "u precedes v" in this schedule's serial order."""
        a, b = (u, v) if self._canon[u] < self._canon[v] else (v, u)
        return (("ord", self.tag, a, b), u == a)

    @staticmethod
    def negate(lit: Lit) -> Lit:
        return (lit[0], not lit[1])

    def add_order_axioms(self) -> None:
        """Transitivity over all ordered triples (antisymmetry is free)."""
        for u in self.txns:
            for v in self.txns:
                if v == u:
                    continue
                for w in self.txns:
                    if w in (u, v):
                        continue
                    self.cnf.add_clause(
                        self.negate(self.before(u, v)),
                        self.negate(self.before(v, w)),
                        self.before(u, w),
                    )

    def add_read_constraints(
        self, source_var_of: dict[tuple[int, TxnId], tuple]
    ) -> None:
        """Selected sources must be last-before-reader writers.

        ``source_var_of`` maps (read position, candidate source) to a CNF
        variable name; the caller controls sharing of those variables
        across schedules (the OLS coupling).
        """
        reads, _writes = _profiles(self.core)
        writers = _writers_of(self.core)
        for t in self.txns:
            for entity, pos in reads[t]:
                candidates = _realizable_sources(self.core, pos)
                cand_lits = [
                    (source_var_of[(pos, c)], True) for c in candidates
                ]
                # Exactly one source.
                self.cnf.clauses.append(tuple(cand_lits))
                for a in range(len(cand_lits)):
                    for b in range(a + 1, len(cand_lits)):
                        self.cnf.add_clause(
                            self.negate(cand_lits[a]),
                            self.negate(cand_lits[b]),
                        )
                for source, lit in zip(candidates, cand_lits):
                    not_src = self.negate(lit)
                    if source == T_INIT:
                        # No writer of the entity may precede the reader.
                        for k in writers[entity]:
                            if k != t:
                                self.cnf.add_clause(
                                    not_src, self.before(t, k)
                                )
                        continue
                    # Source precedes reader; no other writer between.
                    self.cnf.add_clause(not_src, self.before(source, t))
                    for k in writers[entity]:
                        if k in (source, t):
                            continue
                        self.cnf.add_clause(
                            not_src,
                            self.before(k, source),
                            self.before(t, k),
                        )


def mvsr_cnf(schedule: Schedule) -> CNF:
    """CNF satisfiable iff ``schedule`` is MVSR."""
    core = schedule.core()
    cnf = CNF()
    enc = _Encoder(cnf, core, "s")
    enc.add_order_axioms()
    source_vars = {}
    for pos in core.read_indices():
        for cand in _realizable_sources(core, pos):
            source_vars[(pos, cand)] = ("src", "s", pos, cand)
    enc.add_read_constraints(source_vars)
    return cnf


def is_mvsr_sat(schedule: Schedule) -> bool:
    """MVSR decision through the SAT encoding (ablation of E11)."""
    return solve(mvsr_cnf(schedule)) is not None


def ols_pair_cnf(first: Schedule, second: Schedule) -> CNF:
    """CNF satisfiable iff ``{first, second}`` is OLS.

    Both schedules must individually serialize (their own order-variable
    families) while agreeing on the sources of every read inside their
    longest common prefix (shared selection variables).
    """
    a, b = first.core(), second.core()
    lcp = a.common_prefix_length(b)
    cnf = CNF()

    def source_vars_for(core: Schedule, tag: str):
        out = {}
        for pos in core.read_indices():
            shared = pos < lcp
            for cand in _realizable_sources(core, pos):
                name = (
                    ("src", "lcp", pos, cand)
                    if shared
                    else ("src", tag, pos, cand)
                )
                out[(pos, cand)] = name
        return out

    for core, tag in ((a, "s1"), (b, "s2")):
        enc = _Encoder(cnf, core, tag)
        enc.add_order_axioms()
        enc.add_read_constraints(source_vars_for(core, tag))
    return cnf


def is_ols_pair_sat(first: Schedule, second: Schedule) -> bool:
    """Pair OLS through the SAT encoding.

    Complete for pairs: the only branching prefix of a pair is its lcp,
    and candidate source sets agree there (a prefix read's earlier writes
    all lie inside the prefix).
    """
    return solve(ols_pair_cnf(first, second)) is not None
