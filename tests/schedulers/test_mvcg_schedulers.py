"""The MVCG-based schedulers: clairvoyant versus eager."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.classes.mvcsr import is_mvcsr  # noqa: E402
from repro.classes.mvsr import is_mvsr  # noqa: E402
from repro.classes.serial import serial_schedule_for  # noqa: E402
from repro.model.enumeration import random_schedule  # noqa: E402
from repro.model.parsing import parse_schedule  # noqa: E402
from repro.model.readfrom import view_equivalent  # noqa: E402
from repro.model.schedules import T_INIT  # noqa: E402
from repro.model.steps import Op, Step  # noqa: E402
from repro.schedulers.mvcg import EagerMVCGScheduler, MVCGScheduler  # noqa: E402

from tests.helpers import SEC4_S, SEC4_S_PRIME  # noqa: E402


class TestClairvoyantMVCG:
    def test_recognizes_exactly_mvcsr(self):
        rng = random.Random(0)
        for _ in range(250):
            s = random_schedule(
                rng.randint(2, 4), ["x", "y"], rng.randint(1, 3), rng
            )
            assert MVCGScheduler().accepts(s) == is_mvcsr(s), str(s)

    def test_end_of_stream_version_function_serializes(self):
        rng = random.Random(1)
        checked = 0
        for _ in range(100):
            s = random_schedule(3, ["x", "y"], 2, rng)
            sched = MVCGScheduler()
            if not sched.accepts(s):
                continue
            vf = sched.version_function()
            vf.validate(s)
            order = [
                t
                for t in sched._graph.topological_sort()
                if t in s.txn_ids
            ]
            r = serial_schedule_for(s, order)
            assert view_equivalent(s, r, vf, None), str(s)
            checked += 1
        assert checked > 30

    def test_accepts_both_section4_schedules(self):
        # It recognizes all of MVCSR — possible only because its version
        # assignment is deferred to end-of-stream (not an on-line
        # scheduler); §4 shows no on-line scheduler can do this.
        assert MVCGScheduler().accepts(SEC4_S)
        assert MVCGScheduler().accepts(SEC4_S_PRIME)


class TestEagerMVCG:
    def test_outputs_inside_mvcsr(self):
        rng = random.Random(2)
        for _ in range(200):
            s = random_schedule(3, ["x", "y"], 2, rng)
            if EagerMVCGScheduler().accepts(s):
                assert is_mvcsr(s), str(s)

    def test_outputs_inside_mvsr_with_committed_vf(self):
        """The eager commitments are serializing: OLS-subset behaviour."""
        rng = random.Random(3)
        checked = 0
        for _ in range(200):
            s = random_schedule(
                rng.randint(2, 3), ["x", "y"], rng.randint(2, 3), rng
            )
            sched = EagerMVCGScheduler()
            if not sched.accepts(s):
                continue
            vf = sched.version_function()
            vf.validate(s)
            assert is_mvsr(s), str(s)
            order = [
                t
                for t in sched._graph.topological_sort()
                if t in s.txn_ids
            ]
            r = serial_schedule_for(s, order)
            assert view_equivalent(s, r, vf, None), str(s)
            checked += 1
        assert checked > 30

    def test_strictly_smaller_than_mvcsr(self):
        """The OLS gap: eager rejects some MVCSR schedules."""
        rng = random.Random(4)
        gap = 0
        for _ in range(200):
            s = random_schedule(3, ["x", "y"], 2, rng)
            if is_mvcsr(s) and not EagerMVCGScheduler().accepts(s):
                gap += 1
        assert gap > 0

    def test_section4_pair_split(self):
        assert EagerMVCGScheduler().accepts(SEC4_S)
        assert not EagerMVCGScheduler().accepts(SEC4_S_PRIME)

    def test_reads_latest_version(self):
        s = parse_schedule("W1(x) W2(x) R3(x)")
        sched = EagerMVCGScheduler()
        assert sched.accepts(s)
        assert sched.version_function()[2] == 1  # position of W2(x)


# -- decide-first against the trial-graph rule it replaced -----------------


def trial_accepts(scheduler, new_arcs) -> bool:
    """Copy the graph, add the arcs, check the whole copy, swap it in."""
    trial = scheduler._graph.copy()
    for tail, head in new_arcs:
        if tail != head:
            trial.add_arc(tail, head)
    if trial.has_cycle():
        return False
    scheduler._graph = trial
    return True


class TrialCopyMVCG(MVCGScheduler):
    def _accept(self, step):
        txn, entity = step.txn, step.entity
        self._graph.add_node(txn)
        if step.is_read:
            self._readers.setdefault(entity, set()).add(txn)
            return True
        return trial_accepts(
            self, [(r, txn) for r in self._readers.get(entity, ())]
        )


class TrialCopyEagerMVCG(EagerMVCGScheduler):
    def _accept(self, step):
        txn, entity = step.txn, step.entity
        self._graph.add_node(txn)
        position = len(self.accepted_steps)
        writers = self._writers.get(entity, [])
        if step.is_write:
            arcs = [(r, txn) for r in self._readers.get(entity, ())]
            if not trial_accepts(self, arcs):
                return False
            self._writers.setdefault(entity, []).append((txn, position))
            return True
        own = [pos for t, pos in writers if t == txn]
        if own:
            assignment = own[-1]
        elif writers:
            source, assignment = writers[-1]
            arcs = [(source, txn)] + [(other, source) for other, _ in writers]
            if not trial_accepts(self, arcs):
                return False
        else:
            assignment = T_INIT
        self._readers.setdefault(entity, set()).add(txn)
        self._assignments[position] = assignment
        return True


@pytest.mark.parametrize(
    "native, reference",
    [(MVCGScheduler, TrialCopyMVCG), (EagerMVCGScheduler, TrialCopyEagerMVCG)],
    ids=["mvcg", "mvcg-eager"],
)
@settings(max_examples=400, deadline=None)
@given(
    st.lists(
        st.builds(
            Step,
            st.sampled_from("abcd"),
            st.sampled_from(Op),
            st.sampled_from("xyz"),
        ),
        max_size=16,
    )
)
def test_decides_as_the_trial_graph_rule(native, reference, stream):
    """Same decisions, same graph and same committed sources as
    copy-and-check, step by step — the two-headed eager read included —
    and a rejected step leaves the graph's arcs as they were."""
    live, model = native(), reference()
    for step in stream:
        before = live._graph.arcs
        decision = live.submit(step)
        assert decision == model.submit(step), step
        assert live._graph.arcs == model._graph.arcs
        assert live._assignments == model._assignments
        if not decision:
            assert live._graph.arcs == before
            break
