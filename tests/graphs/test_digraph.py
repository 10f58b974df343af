"""The digraph substrate, cross-checked against networkx."""

import random

import networkx as nx
import pytest

from repro.graphs.digraph import Digraph


class TestBasics:
    def test_nodes_and_arcs(self):
        g = Digraph(nodes=[1, 2], arcs=[(1, 2)])
        assert 1 in g and 3 not in g
        assert g.has_arc(1, 2) and not g.has_arc(2, 1)
        assert len(g) == 2 and g.n_arcs() == 1

    def test_add_arc_creates_nodes(self):
        g = Digraph()
        g.add_arc("a", "b")
        assert "a" in g and "b" in g

    def test_remove_arc(self):
        g = Digraph(arcs=[(1, 2)])
        g.remove_arc(1, 2)
        assert not g.has_arc(1, 2)

    def test_remove_node_takes_its_arcs_along(self):
        g = Digraph(arcs=[(1, 2), (2, 3), (3, 1), (2, 2)])
        g.remove_node(2)
        assert 2 not in g and g.nodes == [1, 3]
        assert g.arcs == [(3, 1)]
        assert g.predecessors(3) == set() and g.successors(1) == set()

    def test_copy_is_independent(self):
        g = Digraph(arcs=[(1, 2)])
        h = g.copy()
        h.add_arc(2, 1)
        assert not g.has_arc(2, 1)

    def test_successors_predecessors(self):
        g = Digraph(arcs=[(1, 2), (1, 3)])
        assert g.successors(1) == {2, 3}
        assert g.predecessors(3) == {1}


class TestCycles:
    def test_empty_acyclic(self):
        assert Digraph().is_acyclic()

    def test_self_loop(self):
        assert Digraph(arcs=[(1, 1)]).has_cycle()

    def test_two_cycle(self):
        assert Digraph(arcs=[(1, 2), (2, 1)]).has_cycle()

    def test_dag(self):
        g = Digraph(arcs=[(1, 2), (2, 3), (1, 3)])
        assert g.is_acyclic()

    def test_find_cycle_returns_real_cycle(self):
        g = Digraph(arcs=[(1, 2), (2, 3), (3, 1), (0, 1)])
        cycle = g.find_cycle()
        assert cycle is not None
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert g.has_arc(a, b)

    def test_find_cycle_none_on_dag(self):
        assert Digraph(arcs=[(1, 2)]).find_cycle() is None

    def test_would_close_cycle(self):
        g = Digraph(arcs=[(1, 2), (2, 3)])
        assert g.would_close_cycle(3, 1)
        assert not g.would_close_cycle(1, 3)
        assert g.would_close_cycle(1, 1)


class TestTopologicalSort:
    def test_respects_arcs(self):
        g = Digraph(arcs=[(1, 2), (2, 3), (1, 4)])
        order = g.topological_sort()
        position = {n: i for i, n in enumerate(order)}
        for u, v in g.arcs:
            assert position[u] < position[v]

    def test_raises_on_cycle(self):
        with pytest.raises(ValueError):
            Digraph(arcs=[(1, 2), (2, 1)]).topological_sort()

    def test_deterministic(self):
        g = Digraph(nodes=[3, 1, 2])
        assert g.topological_sort() == g.topological_sort()


class TestReachability:
    def test_reachable_from(self):
        g = Digraph(arcs=[(1, 2), (2, 3), (4, 1)])
        assert g.reachable_from(1) == {1, 2, 3}
        assert g.reachable_from(3) == {3}


class CountedAdjacency(dict):
    """A ``Digraph._succ`` that counts successor-set lookups — one per
    node the search expands, whichever way it asks (``[]`` or ``get``)."""

    lookups = 0

    def __getitem__(self, node):
        self.lookups += 1
        return super().__getitem__(node)

    def get(self, node, default=None):
        self.lookups += 1
        return super().get(node, default)


class TestWouldCloseCycleStopsAtTheTarget:
    """Counts, not wall-clock: the search for ``tail`` from ``head`` ends
    when it sees ``tail``; collecting the whole reachable set first would
    expand every node of the path."""

    N = 5_000

    @pytest.fixture
    def path(self):
        graph = Digraph(arcs=[(k, k + 1) for k in range(self.N)])
        graph._succ = CountedAdjacency(graph._succ)
        return graph

    def test_adjacent_target_is_found_without_walking_the_path(self, path):
        assert path.would_close_cycle(1, 0)
        assert path._succ.lookups <= 2

    def test_a_miss_still_walks_what_is_reachable(self, path):
        # N-3, N-2, N-1 and N are all that is reachable from N-3.
        assert not path.would_close_cycle(0, self.N - 3)
        assert path._succ.lookups <= 4

    def test_agrees_with_reachability_on_random_graphs(self):
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randint(2, 9)
            g = Digraph(range(n), [
                (rng.randrange(n), rng.randrange(n))
                for _ in range(rng.randint(0, 14))
            ])
            for tail in range(n):
                for head in range(n):
                    assert g.would_close_cycle(tail, head) == (
                        tail in g.reachable_from(head)
                    )


class TestNetworkxCrossCheck:
    def test_random_graphs_agree_on_acyclicity(self):
        rng = random.Random(0)
        for _ in range(100):
            n = rng.randint(2, 8)
            arcs = [
                (rng.randrange(n), rng.randrange(n))
                for _ in range(rng.randint(1, 12))
            ]
            arcs = [(u, v) for u, v in arcs if u != v]
            ours = Digraph(nodes=range(n), arcs=arcs)
            theirs = nx.DiGraph(arcs)
            theirs.add_nodes_from(range(n))
            assert ours.is_acyclic() == nx.is_directed_acyclic_graph(theirs)

    def test_topological_sort_valid_per_networkx(self):
        rng = random.Random(1)
        for _ in range(50):
            n = rng.randint(2, 8)
            perm = list(range(n))
            rng.shuffle(perm)
            arcs = set()
            for _ in range(rng.randint(1, 10)):
                u, v = sorted(rng.sample(range(n), 2))
                arcs.add((perm[u], perm[v]))
            ours = Digraph(nodes=range(n), arcs=arcs)
            order = ours.topological_sort()
            position = {x: i for i, x in enumerate(order)}
            for u, v in arcs:
                assert position[u] < position[v]

    def test_to_networkx_roundtrip(self):
        g = Digraph(arcs=[(1, 2), (2, 3)])
        nxg = g.to_networkx()
        assert set(nxg.edges()) == {(1, 2), (2, 3)}
