"""Single-version schedulers: serial, 2PL, SGT."""

import random

import pytest

from repro.classes.csr import is_csr
from repro.classes.serial import is_serial
from repro.model.enumeration import random_schedule
from repro.graphs.digraph import Digraph
from repro.model.parsing import parse_schedule
from repro.model.steps import read, write
from repro.schedulers.serial_sched import SerialScheduler
from repro.schedulers.sgt import SGTScheduler
from repro.schedulers.twopl import TwoPhaseLocking

from tests.graphs.test_digraph import CountedAdjacency


def _lengths(schedule):
    return {t: len(schedule.projection(t)) for t in schedule.txn_ids}


class TestSerialScheduler:
    def test_accepts_serial(self):
        s = parse_schedule("R1(x) W1(x) R2(x)")
        assert SerialScheduler(_lengths(s)).accepts(s)

    def test_rejects_interleaving(self):
        s = parse_schedule("R1(x) R2(x) W1(x)")
        assert not SerialScheduler(_lengths(s)).accepts(s)

    def test_matches_is_serial(self):
        rng = random.Random(0)
        for _ in range(60):
            s = random_schedule(2, ["x", "y"], 2, rng)
            assert SerialScheduler(_lengths(s)).accepts(s) == is_serial(s)

    def test_undeclared_transaction_never_completes(self):
        """Regression: a lengths dict lacking the transaction used to make
        every step its last — T1 "finished" at R1(x) and its own W1(x) was
        rejected.  Undeclared now means open-ended, as with no dict."""
        s = parse_schedule("R1(x) W1(x) R2(x)")
        for lengths in ({}, None, {2: 1}):
            assert SerialScheduler(lengths).accepted_prefix_length(s) == 2
        assert SerialScheduler({1: 2}).accepts(s)

    def test_dead_after_rejection(self):
        sched = SerialScheduler({1: 2, 2: 1})
        s = parse_schedule("R1(x) R2(x) W1(x)")
        sched.reset()
        assert sched.submit(s[0])
        assert not sched.submit(s[1])
        assert not sched.submit(s[2])  # dead: everything rejected now


class TestTwoPhaseLocking:
    def test_accepts_serial(self):
        s = parse_schedule("R1(x) W1(x) R2(x)")
        assert TwoPhaseLocking(_lengths(s)).accepts(s)

    def test_write_lock_conflict(self):
        s = parse_schedule("W1(x) W2(x) R1(y) R2(y)")
        assert not TwoPhaseLocking(_lengths(s)).accepts(s)

    def test_read_locks_shared(self):
        s = parse_schedule("R1(x) R2(x) W1(y) W2(z)")
        assert TwoPhaseLocking(_lengths(s)).accepts(s)

    def test_upgrade_blocked_by_other_reader(self):
        s = parse_schedule("R1(x) R2(x) W1(x) W2(x)")
        assert not TwoPhaseLocking(_lengths(s)).accepts(s)

    def test_locks_release_at_completion(self):
        # T1 finishes, then T2 may write x.
        s = parse_schedule("R1(x) W1(x) W2(x)")
        assert TwoPhaseLocking(_lengths(s)).accepts(s)

    def test_undeclared_transaction_holds_its_locks(self):
        """Regression: a lengths dict lacking the transaction used to make
        every step its last — locks released at once, non-CSR accepted."""
        s = parse_schedule("R1(x) W2(x) W1(x)")
        assert not is_csr(s)
        for lengths in ({}, None, {1: 2, 2: 1}, {2: 1}):
            assert not TwoPhaseLocking(lengths).accepts(s), lengths

    def test_output_within_csr(self):
        """[Yannakakis 81]: locking outputs only CSR schedules."""
        rng = random.Random(1)
        for _ in range(150):
            s = random_schedule(3, ["x", "y"], 2, rng)
            if TwoPhaseLocking(_lengths(s)).accepts(s):
                assert is_csr(s), str(s)

    def test_strictly_less_than_csr(self):
        """2PL (reject semantics) misses some CSR schedules."""
        rng = random.Random(2)
        missed = 0
        for _ in range(200):
            s = random_schedule(3, ["x", "y"], 2, rng)
            if is_csr(s) and not TwoPhaseLocking(_lengths(s)).accepts(s):
                missed += 1
        assert missed > 0


class TestSGT:
    def test_recognizes_exactly_csr(self):
        rng = random.Random(3)
        for _ in range(200):
            s = random_schedule(
                rng.randint(2, 4), ["x", "y"], rng.randint(1, 3), rng
            )
            assert SGTScheduler().accepts(s) == is_csr(s), str(s)

    def test_rejection_is_at_first_cycle(self):
        s = parse_schedule("R1(x) R2(y) W2(x) W1(y) R3(z)")
        sched = SGTScheduler()
        assert sched.accepted_prefix_length(s) == 3  # W1(y) closes the cycle

    def test_accepts_more_than_2pl(self):
        rng = random.Random(4)
        sgt_total = twopl_total = 0
        for _ in range(150):
            s = random_schedule(3, ["x", "y"], 2, rng)
            sgt_total += SGTScheduler().accepts(s)
            twopl_total += TwoPhaseLocking(_lengths(s)).accepts(s)
        assert sgt_total > twopl_total


class TestSGTNeverWalksTheWholeGraph(TestSGT):
    """``TestSGT`` again, on a graph whose whole-graph operations raise:
    the scheduler decides from reachability out of the step's own
    transaction and never copies or colours the graph."""

    @pytest.fixture(autouse=True)
    def strict_graph(self, monkeypatch):
        def refuse(self, *args):
            raise AssertionError("whole-graph walk on the per-step path")

        class StepLocalDigraph(Digraph):
            has_cycle = is_acyclic = find_cycle = refuse
            topological_sort = copy = refuse

        monkeypatch.setattr("repro.schedulers.sgt.Digraph", StepLocalDigraph)
        assert isinstance(SGTScheduler()._graph, StepLocalDigraph)


class TestSGTStepCostsWhatItTouches:
    """Counts, not wall-clock: successor sets fetched per step on a
    conflict path of 5 000 transactions (T_k wrote e_k and e_k+1, so
    T_k -> T_k+1).

    Each test builds its own path and leaves its probes in it (the two
    probes of one test touch disjoint state).  A probe cannot be undone
    in place: ``retract`` drops whole transactions, and a probe is a
    step of a transaction on the path; ``truncate`` re-derives the prefix
    and so replaces the counted adjacency."""

    N = 5_000

    @pytest.fixture
    def path(self):
        sched = SGTScheduler()
        for k in range(self.N):
            assert sched.submit(write(k, f"e{k}"))
            assert sched.submit(write(k, f"e{k + 1}"))
        assert sched._graph.n_arcs() == self.N - 1
        sched._graph._succ = CountedAdjacency(sched._graph._succ)
        return sched

    def lookups(self, sched, step, accepted=True):
        sched._graph._succ.lookups = 0
        assert sched.submit(step) == accepted
        return sched._graph._succ.lookups

    def test_the_newest_transaction_searches_nothing(self, path):
        # One new arc into a transaction nothing follows: its (empty)
        # successor set for the search, the tail's for the insert.
        newest = self.N - 1
        assert self.lookups(path, read(newest, "e0")) <= 2

    def test_a_step_that_adds_no_arc_does_not_search(self, path):
        # T_1 follows T_0 already; an entity nobody touched.
        assert self.lookups(path, read(1, "e1")) == 0
        assert self.lookups(path, write(self.N // 2, "fresh")) == 0

    def test_an_old_transaction_pays_for_its_descendants_only(self, path):
        # T_k reading what T_k+3 wrote closes a cycle; the search from
        # T_k meets T_k+3 after expanding three nodes — not N.
        k = self.N // 2
        assert self.lookups(path, read(k, f"e{k + 4}"), accepted=False) <= 3
