"""The scheduler base protocol."""

import copy

import pytest

from repro.graphs.digraph import Digraph
from repro.model.parsing import parse_schedule
from repro.model.schedules import T_INIT
from repro.model.version_functions import VersionFunction
from repro.schedulers.base import run_schedule, source_txn_of_last_read
from repro.schedulers.mv2pl import TwoVersionTwoPL
from repro.schedulers.mvto import MVTOScheduler
from repro.schedulers.sgt import SGTScheduler
from repro.schedulers.snapshot import SnapshotIsolationScheduler
from repro.schedulers.twopl import TwoPhaseLocking


class TestProtocol:
    def test_run_schedule_accept(self):
        s = parse_schedule("W1(x) R2(x)")
        accepted, vf = run_schedule(MVTOScheduler(), s)
        assert accepted
        assert vf is not None and vf[1] == 0

    def test_run_schedule_reject(self):
        s = parse_schedule("R1(x) R2(x) W1(x)")
        accepted, _vf = run_schedule(MVTOScheduler(), s)
        assert not accepted

    def test_single_version_scheduler_standard_vf(self):
        s = parse_schedule("W1(x) R2(x)")
        accepted, vf = run_schedule(SGTScheduler(), s)
        # A single-version scheduler commits V_s, explicitly.
        assert accepted and vf == VersionFunction.standard(s)
        assert dict(vf.assignments) == {1: 0}

    def test_dead_state_and_reset(self):
        sched = MVTOScheduler()
        bad = parse_schedule("R1(x) R2(x) W1(x)")
        assert not sched.accepts(bad)
        assert sched.dead
        # reset revives it
        good = parse_schedule("R1(x) W1(x)")
        assert sched.accepts(good)
        assert not sched.dead

    def test_accepted_prefix_length(self):
        sched = MVTOScheduler()
        bad = parse_schedule("R1(x) R2(x) W1(x) W2(x)")
        assert sched.accepted_prefix_length(bad) == 2

    def test_source_txn_of_last_read(self):
        sched = MVTOScheduler()
        sched.reset()
        for step in parse_schedule("W1(x) R2(x)"):
            sched.submit(step)
        assert source_txn_of_last_read(sched) == 1

    def test_source_txn_none_cases(self):
        sched = MVTOScheduler()
        sched.reset()
        assert source_txn_of_last_read(sched) is None  # no reads yet
        sv = SGTScheduler()
        sv.reset()
        for step in parse_schedule("W1(x) R2(x)"):
            sv.submit(step)
        # single-version: the standard source, as a definite answer
        assert source_txn_of_last_read(sv) == 1
        assert sv.source_of_read(1) == 0
        sv.reset()
        for step in parse_schedule("R2(x) W1(x)"):
            sv.submit(step)
        assert source_txn_of_last_read(sv) == T_INIT
        assert sv.source_of_read(0) == T_INIT


def snapshot(scheduler):
    """Everything the scheduler holds, except ``dead``."""
    out = {}
    for name, value in vars(scheduler).items():
        if name == "dead":
            continue
        if isinstance(value, Digraph):
            value = (sorted(value.nodes), sorted(value.arcs))
        out[name] = copy.deepcopy(value)
    return out


def _mvto_primed():
    sched = MVTOScheduler()
    sched.prime_transaction(1, 0)
    sched.prime_transaction(2, 1)
    return sched


class TestRejectionLeavesNoTrace:
    """``_accept``'s contract: a rejected step changes nothing but ``dead``.

    Before ``truncate`` existed the residue (a timestamp handed to the
    rejected transaction, a pending write, a graph node) was hidden by the
    ``reset()`` that always followed; now a dead scheduler is revived in
    place, so the residue would be state.
    """

    CASES = {
        # the older transaction's first step arrives late and is rejected
        "mvto": (_mvto_primed, "R2(x)", "W1(x)"),
        # first-committer-wins fails at T1's last step
        "si": (
            lambda: SnapshotIsolationScheduler({1: 2, 2: 1}),
            "R1(y) W2(x)", "W1(x)",
        ),
        "2v2pl-write-write": (
            lambda: TwoVersionTwoPL({1: 2, 2: 2}), "W1(x)", "W2(x)",
        ),
        # certification fails at T1's only step: T2 read x and is live
        "2v2pl-certify": (
            lambda: TwoVersionTwoPL({1: 1, 2: 2}), "R2(x)", "W1(x)",
        ),
        "2pl": (lambda: TwoPhaseLocking({1: 2, 2: 2}), "R1(x)", "W2(x)"),
        "sgt": (SGTScheduler, "R1(x) R2(y) W1(y)", "W2(x)"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_state_after_rejection_is_state_before(self, case):
        build, accepted, rejected = self.CASES[case]
        sched = build()
        for step in parse_schedule(accepted):
            assert sched.submit(step)
        before = snapshot(sched)
        (step,) = parse_schedule(rejected)
        assert not sched.submit(step)
        assert sched.dead
        assert snapshot(sched) == before
