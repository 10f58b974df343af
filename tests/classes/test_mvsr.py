"""Multiversion serializability: deciders, witnesses, version functions."""

import itertools
import random

import pytest

from repro.classes.mvsr import (
    all_mvsr_serializations,
    find_mvsr_serialization,
    is_mvsr,
    is_mvsr_fixed,
    mv_serialization_graph,
    mvsr_serializations,
    order_serves_fixed,
    version_function_for_order,
)
from repro.classes.hierarchy import writes_entities_once
from repro.classes.serial import serial_schedule_for
from repro.classes.vsr import is_vsr
from repro.graphs.polygraph import SearchBudgetExceeded, SearchEffort
from repro.model.enumeration import random_schedule
from repro.model.parsing import parse_schedule
from repro.model.readfrom import view_equivalent
from repro.model.schedules import T_INIT

from tests.helpers import (
    S1_NOT_MVSR,
    S2_MVSR_ONLY,
    SEC4_S,
    SEC4_S_PRIME,
    serial_read_sources,
)


class TestIsMVSR:
    def test_serial(self):
        assert is_mvsr(parse_schedule("R1(x) W1(x) R2(x)"))

    def test_figure1_s1_not_mvsr(self):
        assert not is_mvsr(S1_NOT_MVSR)

    def test_figure1_s2_mvsr(self):
        assert is_mvsr(S2_MVSR_ONLY)

    def test_vsr_subset_of_mvsr(self):
        rng = random.Random(0)
        for _ in range(100):
            s = random_schedule(3, ["x", "y"], 2, rng)
            if is_vsr(s):
                assert is_mvsr(s)

    def test_mvsr_tolerates_late_reads(self):
        # R2(x) arrives after W1(x) but can be served x0: serial 2,1.
        s = parse_schedule("W1(x) R2(x) W2(y) R1(y)")
        assert is_mvsr(s)

    def test_too_early_read_rejected(self):
        # Both transactions read x before either writes: neither order
        # lets the later one read the other's version.
        assert not is_mvsr(parse_schedule("R1(x) R2(x) W1(x) W2(x)"))


class TestWitnesses:
    def test_section4_unique_serializations(self):
        assert all_mvsr_serializations(SEC4_S) == [["A", "B"]]
        assert all_mvsr_serializations(SEC4_S_PRIME) == [["B", "A"]]

    def test_witness_view_equivalence(self):
        """The defining property: (s, V) is view-equivalent to (r, V_r)."""
        rng = random.Random(1)
        checked = 0
        for _ in range(80):
            s = random_schedule(3, ["x", "y"], 2, rng)
            found = find_mvsr_serialization(s)
            if found is None:
                continue
            order, vf = found
            r = serial_schedule_for(s, order)
            assert view_equivalent(s, r, vf, None)
            checked += 1
        assert checked > 20

    def test_version_function_validates(self):
        order, vf = find_mvsr_serialization(SEC4_S)
        vf.validate(SEC4_S)
        assert order == ["A", "B"]

    def test_version_function_for_bad_order_raises(self):
        with pytest.raises(ValueError):
            version_function_for_order(SEC4_S, ["B", "A"])

    def test_enumeration_is_lazy(self):
        gen = mvsr_serializations(SEC4_S)
        assert next(gen) == ["A", "B"]


class TestFixedSources:
    def test_fixed_consistent(self):
        # SEC4_S serializes AB with R_B(x) reading from A (position 2).
        assert is_mvsr_fixed(SEC4_S, {2: "A"})

    def test_fixed_inconsistent(self):
        # Pinning R_B(x) to T0 kills the only serialization of SEC4_S.
        assert not is_mvsr_fixed(SEC4_S, {2: T_INIT})

    def test_fixed_unrealizable_source(self):
        # Pinning to a transaction whose write comes after the read.
        s = parse_schedule("R1(x) W2(x)")
        assert not is_mvsr_fixed(s, {0: 2})

    def test_fixed_own_read(self):
        s = parse_schedule("W1(x) R1(x)")
        assert is_mvsr_fixed(s, {1: 1})
        assert not is_mvsr_fixed(s, {1: T_INIT})

    def test_effort_is_shared_across_the_free_read_search(self):
        # Theorem-4-shaped: W_k W_i R_j per choice, R_j pinned to i.
        s = parse_schedule("W3(b) W1(b) R2(b) W1(c) W2(c) R3(c)")
        pins = {2: 1, 5: 2}
        effort = SearchEffort()
        assert is_mvsr_fixed(s, pins, effort)
        assert effort.tried == 2
        with pytest.raises(SearchBudgetExceeded):
            is_mvsr_fixed(s, pins, SearchEffort(1))

    def test_agrees_with_enumeration(self):
        rng = random.Random(2)
        for _ in range(200):
            s = random_schedule(
                rng.randint(2, 4), ["x", "y"], rng.randint(1, 3), rng
            )
            by_enum = any(True for _ in mvsr_serializations(s))
            assert by_enum == is_mvsr_fixed(s, {}), str(s)


class TestWitnessReplay:
    """``order_serves_fixed``: checking a claimed order is one pass."""

    def test_section4_witness(self):
        assert order_serves_fixed(SEC4_S, ["A", "B"], {2: "A"})
        assert not order_serves_fixed(SEC4_S, ["B", "A"], {2: "A"})
        assert not order_serves_fixed(SEC4_S, ["A", "B"], {2: T_INIT})

    def test_order_must_list_every_transaction_once(self):
        s = parse_schedule("W1(x) R2(x) W3(y)")
        assert order_serves_fixed(s, [1, 2, 3], {1: 1})
        assert not order_serves_fixed(s, [1, 2], {1: 1})
        assert not order_serves_fixed(s, [1, 2, 2, 3], {1: 1})
        assert not order_serves_fixed(s, [1, 1, 3], {})

    def test_source_must_be_realizable(self):
        # 2 precedes 1 serially, but W2(x) comes after R1(x) in s.
        s = parse_schedule("R1(x) W2(x)")
        assert not order_serves_fixed(s, [2, 1], {0: 2})
        assert not order_serves_fixed(s, [2, 1], {})
        assert order_serves_fixed(s, [1, 2], {0: T_INIT})

    def test_own_read_is_pinned_to_its_own_transaction(self):
        s = parse_schedule("W1(x) R1(x)")
        assert order_serves_fixed(s, [1], {1: 1})
        assert not order_serves_fixed(s, [1], {1: T_INIT})

    def test_a_witness_is_exactly_an_enumerated_serialization(self):
        rng = random.Random(4)
        for _ in range(100):
            s = random_schedule(
                rng.randint(2, 4), ["x", "y"], rng.randint(1, 3), rng
            )
            witnesses = all_mvsr_serializations(s)
            for order in map(list, itertools.permutations(s.txn_ids)):
                assert order_serves_fixed(s, order, {}) == (
                    order in witnesses
                ), (str(s), order)


class TestSerializationGraph:
    def test_mvcg_arcs_of_pinned_reads_are_serialization_graph_arcs(self):
        # Pins from a witness order, write-once transactions: the MVCG
        # arc from each pinned (non-own) read to every later write is in
        # the graph — Theorem 1's graph is the pin-free part of this one.
        rng = random.Random(6)
        checked = 0
        for _ in range(300):
            s = random_schedule(
                rng.randint(2, 5), ["x", "y"], rng.randint(1, 3), rng
            )
            found = find_mvsr_serialization(s)
            if found is None or not writes_entities_once(s):
                continue
            pins = serial_read_sources(s, found[0])
            graph = mv_serialization_graph(s, pins)
            for i, source in pins.items():
                reader = s[i].txn
                for w in s.writes_of(s[i].entity):
                    if w > i and source != reader != s[w].txn:
                        assert graph.has_arc(reader, s[w].txn), (str(s), pins)
            # Acyclic or not is the version order's luck; when it is,
            # any topological order is a witness.
            if graph.is_acyclic():
                assert order_serves_fixed(s, graph.topological_sort(), pins)
                checked += 1
        assert checked > 50
