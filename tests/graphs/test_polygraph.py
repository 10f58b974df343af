"""Polygraphs: structure, properties (a)-(c), and acyclicity deciders."""

import random

import pytest

from repro.graphs.polygraph import (
    Polygraph,
    SearchBudgetExceeded,
    SearchEffort,
    random_polygraph,
)


def triangle_forced() -> Polygraph:
    """A polygraph whose only choice is forced into a cycle: not acyclic.

    Arc 0->1 with choice (1, 2, 0) and base arcs making both branches
    close a cycle.
    """
    poly = Polygraph.of(nodes=[0, 1, 2])
    poly.add_choice(1, 2, 0)  # adds arc (0, 1); branches (1,2) or (2,0)
    poly.add_arc(2, 1)  # (1,2) would close 1->2? no: 2->1 + (1,2) = cycle
    poly.add_arc(0, 2)  # (2,0) closes 0->2->0
    return poly


class TestStructure:
    def test_add_choice_adds_definitional_arc(self):
        poly = Polygraph()
        poly.add_choice("j", "k", "i")
        assert ("i", "j") in poly.arcs
        poly.validate()

    def test_validate_detects_missing_arc(self):
        poly = Polygraph(nodes={1, 2, 3}, arcs=set(), choices=[(2, 3, 1)])
        with pytest.raises(ValueError):
            poly.validate()

    def test_property_a(self):
        poly = Polygraph()
        poly.add_choice(2, 3, 1)
        assert poly.has_property_a()
        poly.add_arc(3, 4)
        assert not poly.has_property_a()

    def test_ensure_property_a_adds_fresh_nodes(self):
        poly = Polygraph()
        poly.add_choice(2, 3, 1)
        poly.add_arc(3, 4)
        fixed = poly.ensure_property_a()
        assert fixed.has_property_a()
        assert len(fixed.nodes) == len(poly.nodes) + 1

    def test_ensure_property_a_preserves_acyclicity(self):
        rng = random.Random(0)
        for _ in range(40):
            poly = random_polygraph(4, 3, 2, rng)
            assert poly.is_acyclic() == poly.ensure_property_a().is_acyclic()

    def test_first_branch_graph(self):
        poly = Polygraph()
        poly.add_choice(2, 3, 1)
        poly.add_choice(3, 2, 4)
        g = poly.first_branch_graph()
        assert g.has_arc(2, 3) and g.has_arc(3, 2)
        assert g.has_cycle()

    def test_choices_node_disjoint(self):
        poly = Polygraph()
        poly.add_choice(2, 3, 1)
        assert poly.choices_node_disjoint()
        poly.add_choice(5, 3, 4)
        assert not poly.choices_node_disjoint()


class TestAcyclicity:
    def test_no_choices_reduces_to_digraph(self):
        acyclic = Polygraph.of(nodes=[1, 2], arcs=[(1, 2)])
        assert acyclic.is_acyclic()
        cyclic = Polygraph.of(nodes=[1, 2], arcs=[(1, 2), (2, 1)])
        assert not cyclic.is_acyclic()

    def test_choice_resolves_conflict(self):
        # (2,3) would close a cycle, (3,1) would not.
        poly = Polygraph.of(nodes=[1, 2, 3], arcs=[(3, 2)])
        poly.add_choice(2, 3, 1)
        selection = poly.acyclic_selection()
        assert selection is not None
        assert poly.compatible_digraph(selection).is_acyclic()

    def test_forced_cycle(self):
        assert not triangle_forced().is_acyclic()

    def test_selection_indexing_matches_choices(self):
        poly = Polygraph.of(nodes=[1, 2, 3], arcs=[(3, 2)])
        poly.add_choice(2, 3, 1)
        sel = poly.acyclic_selection()
        j, k, i = poly.choices[0]
        g = poly.compatible_digraph(sel)
        assert g.has_arc(j, k) or g.has_arc(k, i)

    def test_backtracker_agrees_with_bruteforce(self):
        rng = random.Random(42)
        for _ in range(150):
            poly = random_polygraph(
                rng.randint(3, 6), rng.randint(1, 5), rng.randint(0, 4), rng
            )
            assert poly.is_acyclic() == poly.is_acyclic_bruteforce()

    def test_str(self):
        assert "Polygraph" in str(random_polygraph(3, 1, 1, random.Random(0)))


class TestSearchEffort:
    def test_counts_forcings_and_branches(self):
        # One choice, one feasible branch: a single forcing.
        poly = Polygraph.of(nodes=[1, 2, 3], arcs=[(3, 2)])
        poly.add_choice(2, 3, 1)
        effort = SearchEffort()
        assert poly.is_acyclic(effort)
        assert effort.tried == 1
        # No choices, nothing tried.
        effort = SearchEffort()
        assert Polygraph.of(arcs=[(1, 2)]).is_acyclic(effort)
        assert effort.tried == 0

    def test_count_is_a_function_of_the_instance(self):
        rng = random.Random(9)
        for _ in range(30):
            poly = random_polygraph(6, 5, 4, rng)
            first, second = SearchEffort(), SearchEffort()
            assert poly.is_acyclic(first) == poly.is_acyclic(second)
            assert first.tried == second.tried

    def test_one_effort_accumulates_over_calls(self):
        poly = Polygraph.of(nodes=[1, 2, 3], arcs=[(3, 2)])
        poly.add_choice(2, 3, 1)
        effort = SearchEffort()
        poly.is_acyclic(effort)
        poly.is_acyclic(effort)
        assert effort.tried == 2

    def test_budget_ends_the_search_with_a_named_error(self):
        poly = random_polygraph(8, 7, 6, random.Random(1))
        unbounded = SearchEffort()
        answer = poly.is_acyclic(unbounded)
        assert unbounded.tried > 1
        # Exactly enough is enough; one short raises.
        exact = SearchEffort(unbounded.tried)
        assert poly.is_acyclic(exact) == answer
        short = SearchEffort(unbounded.tried - 1)
        with pytest.raises(SearchBudgetExceeded, match="choices"):
            poly.is_acyclic(short)
        assert short.tried == unbounded.tried


class TestRandomPolygraph:
    def test_arc_graph_acyclic_by_construction(self):
        rng = random.Random(5)
        for _ in range(30):
            poly = random_polygraph(5, 4, 3, rng)
            assert poly.arc_graph().is_acyclic()
            poly.validate()
