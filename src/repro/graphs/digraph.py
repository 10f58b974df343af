"""A small directed-graph library.

Hand-rolled rather than pulled from networkx so that the algorithmic core
of the reproduction is self-contained and auditable; the test suite
cross-checks cycle detection and topological sorting against networkx.

Supports exactly what the deciders and schedulers need: arc insertion,
incremental cycle queries, topological sort, and reachability.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator

Node = Hashable


class Digraph:
    """Mutable directed graph over hashable nodes."""

    def __init__(
        self,
        nodes: Iterable[Node] = (),
        arcs: Iterable[tuple[Node, Node]] = (),
    ) -> None:
        self._succ: dict[Node, set[Node]] = {}
        self._pred: dict[Node, set[Node]] = {}
        for n in nodes:
            self.add_node(n)
        for u, v in arcs:
            self.add_arc(u, v)

    # -- construction ------------------------------------------------------

    def add_node(self, node: Node) -> None:
        self._succ.setdefault(node, set())
        self._pred.setdefault(node, set())

    def add_arc(self, tail: Node, head: Node) -> None:
        self.add_node(tail)
        self.add_node(head)
        self._succ[tail].add(head)
        self._pred[head].add(tail)

    def remove_arc(self, tail: Node, head: Node) -> None:
        self._succ[tail].discard(head)
        self._pred[head].discard(tail)

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and every arc at it."""
        for head in self._succ.pop(node):
            self._pred[head].discard(node)
        for tail in self._pred.pop(node):
            self._succ[tail].discard(node)

    def copy(self) -> "Digraph":
        g = Digraph()
        for n in self._succ:
            g.add_node(n)
        for u, vs in self._succ.items():
            for v in vs:
                g.add_arc(u, v)
        return g

    # -- queries -------------------------------------------------------------

    @property
    def nodes(self) -> list[Node]:
        return list(self._succ.keys())

    @property
    def arcs(self) -> list[tuple[Node, Node]]:
        return [(u, v) for u, vs in self._succ.items() for v in sorted(vs, key=repr)]

    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def has_arc(self, tail: Node, head: Node) -> bool:
        return tail in self._succ and head in self._succ[tail]

    def successors(self, node: Node) -> set[Node]:
        return set(self._succ.get(node, ()))

    def predecessors(self, node: Node) -> set[Node]:
        return set(self._pred.get(node, ()))

    def __len__(self) -> int:
        return len(self._succ)

    def n_arcs(self) -> int:
        return sum(len(vs) for vs in self._succ.values())

    # -- algorithms ----------------------------------------------------------

    def has_cycle(self) -> bool:
        """True iff the graph contains a directed cycle (iterative DFS)."""
        WHITE, GREY, BLACK = 0, 1, 2
        color = dict.fromkeys(self._succ, WHITE)
        for root in self._succ:
            if color[root] != WHITE:
                continue
            stack: list[tuple[Node, Iterator[Node]]] = [
                (root, iter(self._succ[root]))
            ]
            color[root] = GREY
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if color[nxt] == GREY:
                        return True
                    if color[nxt] == WHITE:
                        color[nxt] = GREY
                        stack.append((nxt, iter(self._succ[nxt])))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return False

    def is_acyclic(self) -> bool:
        return not self.has_cycle()

    def topological_sort(self) -> list[Node]:
        """One topological order; raises ``ValueError`` on a cycle.

        Kahn's algorithm with deterministic (insertion-order) tie-breaks so
        results are reproducible across runs.
        """
        indegree = {n: len(self._pred[n]) for n in self._succ}
        ready = [n for n in self._succ if indegree[n] == 0]
        order: list[Node] = []
        head = 0
        while head < len(ready):
            node = ready[head]
            head += 1
            order.append(node)
            for nxt in self._succ[node]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    ready.append(nxt)
        if len(order) != len(self._succ):
            raise ValueError("graph has a cycle; no topological order exists")
        return order

    def reachable_from(self, source: Node) -> set[Node]:
        """All nodes reachable from ``source`` (including itself)."""
        seen = {source}
        frontier = [source]
        while frontier:
            node = frontier.pop()
            for nxt in self._succ.get(node, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def would_close_cycle(self, tail: Node, head: Node) -> bool:
        """True iff adding ``tail -> head`` would create a cycle.

        Used by the polygraph backtracker (and through it the polygraph
        scheduler and the auditor's search tier): an arc closes a cycle
        iff ``tail`` is reachable from ``head``.  The search stops at
        ``tail`` rather than collecting the whole reachable set.
        """
        if tail == head:
            return True
        succ = self._succ
        if head not in succ or tail not in succ:
            return False
        seen = {head}
        frontier = [head]
        while frontier:
            successors = succ[frontier.pop()]
            if tail in successors:
                return True
            for nxt in successors:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    def find_cycle(self) -> list[Node] | None:
        """Return one directed cycle as a node list, or None if acyclic."""
        color: dict[Node, int] = dict.fromkeys(self._succ, 0)
        parent: dict[Node, Node] = {}
        for root in self._succ:
            if color[root]:
                continue
            stack: list[tuple[Node, Iterator[Node]]] = [
                (root, iter(self._succ[root]))
            ]
            color[root] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if color[nxt] == 1:
                        cycle = [nxt, node]
                        cur = node
                        while cur != nxt:
                            cur = parent[cur]
                            cycle.append(cur)
                        cycle.reverse()
                        return cycle[:-1]
                    if color[nxt] == 0:
                        color[nxt] = 1
                        parent[nxt] = node
                        stack.append((nxt, iter(self._succ[nxt])))
                        advanced = True
                        break
                if not advanced:
                    color[node] = 2
                    stack.pop()
        return None

    def to_networkx(self):  # pragma: no cover - exercised in cross-check tests
        """Export to a ``networkx.DiGraph`` (cross-checking only)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(self._succ.keys())
        for u, vs in self._succ.items():
            g.add_edges_from((u, v) for v in vs)
        return g
