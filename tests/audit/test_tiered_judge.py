"""Reference model: the bare polygraph search the tiered judge fronts.

:func:`repro.classes.mvsr.certify_fixed` answers "does a serial order
serve these pinned read sources?" witness-first — replay the claimed
order, replay an order derived from the multiversion serialization
graph, search only when both fail.  The claim is that this is the *same
decision* as :func:`repro.classes.mvsr.is_mvsr_fixed` alone (which stays
in the package as tier 2, and is the reference here): Hypothesis drives
both over generated segments — random interleavings whose pins come
from a random serial order (mostly serializable), the same with pins
perturbed (mostly not, some unrealizable), claimed orders right, wrong
and malformed — and over the segments the adversarial fixtures of
``test_adversarial.py`` reconstruct to.  Verdicts must be equal wherever
the budget is not hit, and each positive tier must hold what it says.

The budget case takes the one family built to need the search: part (i)
of the Theorem 4 construction with each read pinned to the arc's tail is
MVSR-fixed iff the polygraph is acyclic.  Under a tiny budget the
auditor must answer ``audit-budget-exceeded`` — never a pass, never
``not-serializable``.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.audit import Auditor, Segment, auditor
from repro.classes.mvsr import (
    certify_fixed,
    TIERS,
    is_mvsr_fixed,
    mv_serialization_graph,
    order_serves_fixed,
)
from repro.db import Database, RunConfig
from repro.graphs.polygraph import SearchEffort
from repro.model.schedules import Schedule, T_INIT
from repro.model.steps import read, write
from repro.obs import Tracer
from repro.reductions.sat_to_polygraph import monotone_sat_to_polygraph
from repro.reductions.theorem4 import theorem4_schedules
from repro.sat.cnf import CNF, neg, pos

from tests.audit.test_reconstruct import close, commit, fold, rd, wr
from tests.helpers import serial_read_sources

ENTITIES = ("x", "y", "z")


@st.composite
def segments(draw):
    """(schedule, pins, claimed order) — see the module docstring."""
    n = draw(st.integers(2, 6))
    txns = [f"t{k}" for k in range(n)]
    programs = {
        t: draw(st.lists(
            st.tuples(st.booleans(), st.sampled_from(ENTITIES)),
            min_size=1, max_size=4,
        ))
        for t in txns
    }
    # A random shuffle of the programs: draw which transaction moves next.
    pending = {t: list(ops) for t, ops in programs.items()}
    steps = []
    while pending:
        t = draw(st.sampled_from(sorted(pending)))
        is_write, entity = pending[t].pop(0)
        steps.append(write(t, entity) if is_write else read(t, entity))
        if not pending[t]:
            del pending[t]
    schedule = Schedule.of(steps)

    # Pins: what a serial run in a random order would have served.
    serial = draw(st.permutations(txns))
    pins = serial_read_sources(schedule, serial)
    for i in draw(st.lists(st.sampled_from(sorted(pins)), max_size=2)
                  if pins else st.just([])):
        pins[i] = draw(st.sampled_from(txns + [T_INIT]))
    for i in draw(st.lists(st.sampled_from(sorted(pins)), max_size=2)
                  if pins else st.just([])):
        pins.pop(i, None)  # the deciders take unpinned reads too

    claimed = draw(st.one_of(
        st.just(list(serial)),
        st.permutations(txns),
        st.lists(st.sampled_from(txns), max_size=n + 1),  # malformed
    ))
    return schedule, pins, tuple(claimed)


def assert_same_decision(schedule, pins, claimed):
    expected = is_mvsr_fixed(schedule, dict(pins))
    tier = certify_fixed(schedule, pins, claimed, SearchEffort())
    assert (tier is not None) == expected, (str(schedule), pins, claimed)
    served = order_serves_fixed(schedule, claimed, pins)
    if tier == "replay":
        assert served
    elif tier == "graph":
        derived = mv_serialization_graph(schedule, pins).topological_sort()
        assert not served
        assert order_serves_fixed(schedule, derived, pins)
    else:
        assert not served
    return tier


class TestSameDecisionAsTheBareSearch:
    @settings(max_examples=400, deadline=None)
    @given(segments())
    def test_generated_segments(self, segment):
        assert_same_decision(*segment)

    @settings(max_examples=100, deadline=None)
    @given(segments())
    def test_auditor_verdict_is_the_search_verdict(self, segment):
        schedule, pins, claimed = segment
        judge = Auditor()
        judge._judge(Segment("engine", 0, schedule, pins, claimed))
        report = judge.finish()
        codes = [v.code for v in report.violations]
        if is_mvsr_fixed(schedule, dict(pins)):
            assert report.ok and report.certified == 1
        else:
            assert codes == ["not-serializable"] and report.certified == 0
        assert tuple(report.tiers) == TIERS
        assert sum(report.tiers.values()) == 1
        assert len(report.search_choices) == report.tiers["search"]

    def test_every_tier_is_reached(self):
        w, r = write, read
        # The commit order is the serial order: tier 0.
        s = Schedule.of([w("a", "x"), r("b", "x")])
        assert assert_same_decision(s, {1: "a"}, ("a", "b")) == "replay"
        # A long reader committing after the writer it precedes: tier 1.
        s = Schedule.of([r("a", "x"), w("b", "x"), r("a", "y")])
        pins = {0: T_INIT, 2: T_INIT}
        assert assert_same_decision(s, pins, ("b", "a")) == "graph"
        # Install order k, w but the only witness puts k after the
        # reader: the graph's version order is wrong, the search's not.
        s = Schedule.of([
            w("k", "x"), w("w", "x"), r("t", "x"), w("t", "y"), r("k", "y"),
        ])
        pins = {2: "w", 4: "t"}
        assert assert_same_decision(s, pins, ("k", "w", "t")) == "search"
        # Write skew: no witness at all.
        s = Schedule.of([r("a", "x"), r("b", "y"), w("a", "y"), w("b", "x")])
        pins = {0: T_INIT, 1: T_INIT}
        assert assert_same_decision(s, pins, ("a", "b")) is None


def reconstructed(events):
    return [s for s in fold(events) if not s.violations]


def real_trace_events():
    tracer = Tracer(capacity=None)
    Database().run(
        "sharded-bank",
        RunConfig(mode="serial", workers=2, seed=3, trace=tracer),
        txns=40,
    )
    return list(tracer.log)


#: the streams of ``test_adversarial.py`` that reach the judge (a
#: structural violation keeps a segment away from it).
FIXTURES = {
    "write-skew": lambda: [
        commit("a", rd("x", None, T_INIT), wr("y", 1)),
        commit("b", rd("y", None, T_INIT), wr("x", 2)),
        close(),
    ],
    "clean-then-clean": lambda: [
        commit("a", wr("x", 1)), commit("b", rd("x", 1, "a")), close(),
        commit("c", wr("y", 2)), close(),
    ],
    "real-trace": real_trace_events,
}


class TestAdversarialFixtures:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixture_segments(self, name):
        judged = reconstructed(FIXTURES[name]())
        assert judged
        for segment in judged:
            assert_same_decision(
                segment.schedule, segment.read_sources, segment.committed
            )

    def test_forged_write_skew_is_still_not_serializable(self):
        (segment,) = reconstructed(FIXTURES["write-skew"]())
        assert certify_fixed(
            segment.schedule, segment.read_sources, segment.committed
        ) is None


def theorem4_segment(formula):
    """Part (i) of Theorem 4 over the SAT reduction's polygraph, every
    ``R_j(b)`` pinned to ``i``: MVSR-fixed iff the polygraph is acyclic,
    i.e. iff ``formula`` is satisfiable."""
    poly = monotone_sat_to_polygraph(formula).polygraph.ensure_property_a()
    s1, _s2 = theorem4_schedules(poly)
    prefix = s1.prefix(3 * len(poly.choices))
    pins = {i: prefix[i - 1].txn for i in range(2, len(prefix), 3)}
    return Segment("engine", 0, prefix, pins, prefix.txn_ids)


SATISFIABLE = CNF([(pos("a"), pos("b")), (neg("a"), neg("b"))])
UNSATISFIABLE = CNF(
    [(pos("a"), pos("a")), (pos("b"), pos("b")), (neg("a"), neg("b"))]
)


class TestBudget:
    def judged(self, segment):
        judge = Auditor()
        judge._judge(segment)
        return judge.finish()

    def test_theorem4_instances_need_the_search(self):
        report = self.judged(theorem4_segment(SATISFIABLE))
        assert report.ok
        assert report.tiers == {"replay": 0, "graph": 0, "search": 1}
        assert report.search_choices[0] > 3
        report = self.judged(theorem4_segment(UNSATISFIABLE))
        assert [v.code for v in report.violations] == ["not-serializable"]
        assert report.tiers["search"] == 1 and report.search_choices[0] > 3

    @pytest.mark.parametrize("formula", [SATISFIABLE, UNSATISFIABLE])
    def test_tiny_budget_is_undecided_not_a_verdict(
        self, formula, monkeypatch
    ):
        monkeypatch.setattr(auditor, "SEARCH_BUDGET", 3)
        report = self.judged(theorem4_segment(formula))
        assert not report.ok and report.certified == 0
        assert [v.code for v in report.violations] == [
            "audit-budget-exceeded"
        ]
        assert report.tiers["search"] == 1
        assert report.search_choices == (4,)
        assert "search 1  (4 choices tried)" in report.format()
