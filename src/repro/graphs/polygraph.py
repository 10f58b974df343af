"""Polygraphs and polygraph acyclicity (paper §2, after [Papadimitriou 79]).

A *polygraph* ``(N, A, C)`` has nodes ``N``, arcs ``A`` and *choices* ``C``
— ordered triples ``(j, k, i)`` such that ``(i, j)`` is an arc.  A digraph
``(N', A')`` is *compatible* with the polygraph iff ``N ⊆ N'``,
``A ⊆ A'``, and for every choice ``(j, k, i)`` at least one of ``(j, k)``
or ``(k, i)`` is in ``A'``.  The polygraph is *acyclic* iff some
compatible digraph is acyclic.  Testing polygraph acyclicity is
NP-complete, and it is the seed of every hardness proof in the paper
(Theorems 4, 5 and 6).

Two deciders are provided:

* :meth:`Polygraph.acyclic_selection` — backtracking over choices with
  forced-branch propagation (exact, exponential worst case).  Its work
  is counted in *choices tried* on a :class:`SearchEffort`, which can
  also bound it: past the budget the search raises
  :class:`SearchBudgetExceeded` instead of running on;
* :func:`repro.reductions.polygraph_sat.polygraph_acyclicity_cnf` — a CNF
  encoding solved with the package's DPLL solver (exact as well; the two
  are cross-checked in the tests).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Sequence

from repro.graphs.digraph import Digraph

Node = Hashable
Arc = tuple[Node, Node]
#: A choice (j, k, i): the compatible digraph must contain (j,k) or (k,i).
Choice = tuple[Node, Node, Node]

#: choices the auditor lets one segment's search try before it gives
#: the verdict ``audit-budget-exceeded``.  Forced to search, the largest
#: segment any registered scenario produces at default sizes (124
#: transactions, 320 steps) needs 15 414; a 256-transaction batch needs
#: ~30 000-75 000 and over ten seconds, which is the scale at which an
#: undecided verdict beats waiting.  Tiers 0 and 1 normally leave the
#: search nothing to do.
SEARCH_BUDGET = 50_000


class SearchBudgetExceeded(Exception):
    """The backtracker tried more choices than its budget allows."""


class SearchEffort:
    """Choices tried by the backtracker, optionally against a budget.

    One choice tried is one branch assigned: a forcing made by
    propagation or a branch taken by the search.  The count depends on
    the instance alone (choices are visited in list order), so it is
    the machine-independent measure of how hard an instance was.
    """

    __slots__ = ("budget", "tried")

    def __init__(self, budget: int | None = None) -> None:
        self.budget = budget
        self.tried = 0

    def spend(self) -> None:
        self.tried += 1
        if self.budget is not None and self.tried > self.budget:
            raise SearchBudgetExceeded(
                f"polygraph search tried more than {self.budget} choices"
            )


@dataclass
class Polygraph:
    """Mutable polygraph with validity checking.

    Invariant maintained by :meth:`add_choice`: for every choice
    ``(j, k, i)`` the definitional arc ``(i, j)`` is present in ``arcs``.
    """

    nodes: set = field(default_factory=set)
    arcs: set = field(default_factory=set)
    choices: list = field(default_factory=list)

    @classmethod
    def of(
        cls,
        nodes: Iterable[Node] = (),
        arcs: Iterable[Arc] = (),
        choices: Iterable[Choice] = (),
    ) -> "Polygraph":
        p = cls(set(nodes), set(), [])
        for tail, head in arcs:
            p.add_arc(tail, head)
        for j, k, i in choices:
            p.add_choice(j, k, i)
        return p

    # -- construction ---------------------------------------------------

    def add_node(self, node: Node) -> None:
        self.nodes.add(node)

    def add_arc(self, tail: Node, head: Node) -> None:
        self.nodes.add(tail)
        self.nodes.add(head)
        self.arcs.add((tail, head))

    def add_choice(self, j: Node, k: Node, i: Node) -> None:
        """Add choice ``(j, k, i)``; adds the definitional arc ``(i, j)``."""
        self.nodes.update((i, j, k))
        self.arcs.add((i, j))
        if (j, k, i) not in self.choices:
            self.choices.append((j, k, i))

    def validate(self) -> None:
        """Raise ``ValueError`` if a choice lacks its definitional arc."""
        for j, k, i in self.choices:
            if (i, j) not in self.arcs:
                raise ValueError(f"choice {(j, k, i)} lacks its arc {(i, j)}")

    # -- structural properties used by Theorems 4 and 6 --------------------

    def arcs_with_choice(self) -> set:
        """Arcs ``(i, j)`` that have at least one corresponding choice."""
        return {(i, j) for (j, _k, i) in self.choices}

    def has_property_a(self) -> bool:
        """Property (a) of Theorem 4: every arc has a corresponding choice."""
        return self.arcs <= self.arcs_with_choice()

    def ensure_property_a(self) -> "Polygraph":
        """Return an equivalent polygraph where every arc has a choice.

        The paper's trick: for each arc ``(i, j)`` with no corresponding
        choice, add a brand-new node ``k`` and the choice ``(j, k, i)``.
        The new choices cannot participate in any cycle (the fresh nodes
        have no other arcs), so acyclicity is preserved both ways.
        """
        out = Polygraph.of(self.nodes, self.arcs, self.choices)
        covered = self.arcs_with_choice()
        counter = itertools.count()
        for (i, j) in sorted(self.arcs - covered, key=repr):
            k = ("aux", next(counter))
            while k in out.nodes:
                k = ("aux", next(counter))
            out.add_choice(j, k, i)
        return out

    def first_branch_graph(self) -> Digraph:
        """The digraph ``(N, C_1)``, ``C_1 = {(j, k) : (j, k, i) in C}``.

        Assumption (b) in the proof of Theorem 4 is that this graph is
        acyclic.
        """
        return Digraph(self.nodes, [(j, k) for (j, k, _i) in self.choices])

    def arc_graph(self) -> Digraph:
        """The digraph ``(N, A)`` (assumption (c): acyclic)."""
        return Digraph(self.nodes, self.arcs)

    def choices_node_disjoint(self) -> bool:
        """True iff no node appears in two different choices (Theorem 6)."""
        seen: set = set()
        for triple in self.choices:
            for node in triple:
                if node in seen:
                    return False
            seen.update(triple)
        return True

    def satisfies_theorem4_assumptions(self) -> bool:
        """Properties (a), (b), (c) assumed by the Theorem 4 reduction."""
        return (
            self.has_property_a()
            and self.first_branch_graph().is_acyclic()
            and self.arc_graph().is_acyclic()
        )

    # -- acyclicity --------------------------------------------------------

    def compatible_digraph(self, selection: Sequence[int]) -> Digraph:
        """The compatible digraph picking branch ``selection[c]`` per choice.

        ``selection[c] == 0`` picks the first branch ``(j, k)`` of choice
        ``c``; ``1`` picks the second branch ``(k, i)``.
        """
        g = Digraph(self.nodes, self.arcs)
        for pick, (j, k, i) in zip(selection, self.choices):
            if pick == 0:
                g.add_arc(j, k)
            else:
                g.add_arc(k, i)
        return g

    def acyclic_selection(
        self, effort: SearchEffort | None = None
    ) -> list[int] | None:
        """Find a selection whose compatible digraph is acyclic, or None.

        Backtracking over choices with forced-branch propagation: whenever
        one branch of a pending choice would close a cycle in the current
        digraph, the other branch is forced immediately.  Exponential in
        the worst case, as it must be (the problem is NP-complete) —
        ``effort`` counts the choices tried and, when it carries a
        budget, ends the search with :class:`SearchBudgetExceeded`.
        """
        if effort is None:
            effort = SearchEffort()
        base = Digraph(self.nodes, self.arcs)
        if base.has_cycle():
            return None
        n = len(self.choices)
        assignment: list[int | None] = [None] * n

        def branch_arc(c: int, pick: int) -> Arc:
            j, k, i = self.choices[c]
            return (j, k) if pick == 0 else (k, i)

        def propagate(graph: Digraph, trail: list[tuple[int, Arc]]) -> bool:
            """Force single-feasible choices until fixpoint; False on conflict."""
            changed = True
            while changed:
                changed = False
                for c in range(n):
                    if assignment[c] is not None:
                        continue
                    feasible = []
                    for pick in (0, 1):
                        tail, head = branch_arc(c, pick)
                        if graph.has_arc(tail, head):
                            # Branch already present: choice is satisfied.
                            feasible = [pick, pick]
                            break
                        if not graph.would_close_cycle(tail, head):
                            feasible.append(pick)
                    if not feasible:
                        return False
                    if len(feasible) == 1 or feasible[0] == feasible[-1]:
                        pick = feasible[0]
                        effort.spend()
                        assignment[c] = pick
                        tail, head = branch_arc(c, pick)
                        if not graph.has_arc(tail, head):
                            graph.add_arc(tail, head)
                            trail.append((c, (tail, head)))
                        else:
                            trail.append((c, None))
                        changed = True
            return True

        def undo(graph: Digraph, trail: list[tuple[int, Arc]]) -> None:
            for c, arc in reversed(trail):
                assignment[c] = None
                if arc is not None:
                    graph.remove_arc(*arc)

        def solve(graph: Digraph) -> bool:
            trail: list[tuple[int, Arc]] = []
            if not propagate(graph, trail):
                undo(graph, trail)
                return False
            try:
                c = assignment.index(None)
            except ValueError:
                return True  # all choices assigned, graph acyclic
            for pick in (0, 1):
                tail, head = branch_arc(c, pick)
                if graph.would_close_cycle(tail, head):
                    continue
                effort.spend()
                assignment[c] = pick
                added = not graph.has_arc(tail, head)
                if added:
                    graph.add_arc(tail, head)
                if solve(graph):
                    return True
                if added:
                    graph.remove_arc(tail, head)
                assignment[c] = None
            undo(graph, trail)
            return False

        if solve(base):
            return [int(a) for a in assignment]  # type: ignore[arg-type]
        return None

    def is_acyclic(self, effort: SearchEffort | None = None) -> bool:
        """Polygraph acyclicity: some compatible digraph is acyclic."""
        return self.acyclic_selection(effort) is not None

    def is_acyclic_bruteforce(self) -> bool:
        """Reference decider: try all ``2^|C|`` selections (tests only)."""
        base = Digraph(self.nodes, self.arcs)
        if base.has_cycle():
            return False
        for selection in itertools.product((0, 1), repeat=len(self.choices)):
            if self.compatible_digraph(selection).is_acyclic():
                return True
        return False

    def __str__(self) -> str:
        return (
            f"Polygraph(|N|={len(self.nodes)}, |A|={len(self.arcs)}, "
            f"|C|={len(self.choices)})"
        )


def random_polygraph(
    n_nodes: int,
    n_arcs: int,
    n_choices: int,
    rng: random.Random,
) -> Polygraph:
    """A random polygraph for stress tests and benchmarks.

    Base arcs are drawn forward along a random permutation so the arc
    graph ``(N, A)`` is acyclic (assumption (c) of the Theorem 4/6
    constructions); choices then point at random third nodes.  The result
    may be acyclic or not — that is the decider's job to find out.
    """
    nodes = list(range(n_nodes))
    order = nodes[:]
    rng.shuffle(order)
    rank = {v: p for p, v in enumerate(order)}
    poly = Polygraph.of(nodes)
    attempts = 0
    while len(poly.arcs) < n_arcs and attempts < 50 * n_arcs:
        attempts += 1
        u, v = rng.sample(nodes, 2)
        if rank[u] > rank[v]:
            u, v = v, u
        poly.add_arc(u, v)
    arcs = sorted(poly.arcs, key=repr)
    added = 0
    attempts = 0
    while added < n_choices and attempts < 50 * n_choices and arcs:
        attempts += 1
        i, j = arcs[rng.randrange(len(arcs))]
        k = rng.choice(nodes)
        if k in (i, j):
            continue
        if (j, k, i) not in poly.choices:
            poly.add_choice(j, k, i)
            added += 1
    return poly
