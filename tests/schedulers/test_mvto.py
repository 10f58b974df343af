"""Multiversion timestamp ordering."""

import math
import random
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.classes.mvsr import (  # noqa: E402
    is_mvsr,
    is_mvsr_fixed,
    order_serves_fixed,
)
from repro.classes.serial import serial_schedule_for  # noqa: E402
from repro.model.enumeration import random_schedule  # noqa: E402
from repro.model.parsing import parse_schedule  # noqa: E402
from repro.model.readfrom import view_equivalent  # noqa: E402
from repro.model.schedules import Schedule, T_INIT  # noqa: E402
from repro.model.steps import Op, Step, read, write  # noqa: E402
from repro.schedulers import mvto  # noqa: E402
from repro.schedulers.mvto import MVTOScheduler  # noqa: E402

from tests.helpers import SEC4_S, SEC4_S_PRIME  # noqa: E402


class TestBasics:
    def test_accepts_serial(self):
        assert MVTOScheduler().accepts(parse_schedule("R1(x) W1(x) R2(x)"))

    def test_late_read_served_old_version(self):
        # T1 starts first; its read of y after W2(y) gets y0.
        s = parse_schedule("R1(x) W2(y) R1(y)")
        sched = MVTOScheduler()
        assert sched.accepts(s)
        vf = sched.version_function()
        assert vf[2] == T_INIT

    def test_late_write_rejected(self):
        # T2 (younger) reads x0; then T1 (older) writes x: invalidation.
        s = parse_schedule("R1(x) R2(x) W1(x)")
        assert not MVTOScheduler().accepts(s)

    def test_writes_of_distinct_entities_ok(self):
        s = parse_schedule("R1(x) R2(y) W1(y) W2(x)")
        # W1(y): y0 read by T2 (ts 1)? T2 read y, ts(T2)=1 > ts(T1)=0:
        # invalidation -> reject.
        assert not MVTOScheduler().accepts(s)

    def test_own_rewrite_and_reread(self):
        s = parse_schedule("W1(x) W1(x) R1(x)")
        sched = MVTOScheduler()
        assert sched.accepts(s)
        # The re-read sees the transaction's own second write.
        assert sched.version_function()[2] == 1


    def test_late_write_under_a_reader_of_a_rewritten_entity(self):
        """Regression: T1 wrote x twice, so T3's read is recorded on T1's
        *second* version — the version T2's write slots right after.
        Checking T1's first version instead let the late write through,
        and the (s, V) it committed is not serializable: z and w force
        T1 < T2 < T3, and T2's x lands between T1's and T3's read of it."""
        s = parse_schedule(
            "W1(x) W1(x) W1(z) R2(z) W2(w) R3(w) R3(x) W2(x)"
        )
        sched = MVTOScheduler()
        assert sched.accepted_prefix_length(s) == 7
        assert sched.version_function()[6] == 1  # T3 read the second write
        # What accepting the eighth step would have committed.
        assert not is_mvsr_fixed(s, {3: 1, 5: 2, 6: 1})


class TestCorrectness:
    def test_accepted_schedules_are_mvsr(self):
        rng = random.Random(0)
        accepted = 0
        for _ in range(250):
            s = random_schedule(
                rng.randint(2, 4), ["x", "y"], rng.randint(1, 3), rng
            )
            sched = MVTOScheduler()
            if sched.accepts(s):
                accepted += 1
                assert is_mvsr(s), str(s)
        assert accepted > 30

    def test_committed_version_function_serializes(self):
        """(s, V_mvto) is view-equivalent to the timestamp-order serial."""
        rng = random.Random(1)
        checked = 0
        for _ in range(150):
            s = random_schedule(3, ["x", "y"], 2, rng)
            sched = MVTOScheduler()
            if not sched.accepts(s):
                continue
            vf = sched.version_function()
            vf.validate(s)
            order = sched.serialization_order()
            r = serial_schedule_for(s, order)
            assert view_equivalent(s, r, vf, None), str(s)
            checked += 1
        assert checked > 20

    def test_section4_pair_split(self):
        assert MVTOScheduler().accepts(SEC4_S)
        assert not MVTOScheduler().accepts(SEC4_S_PRIME)

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.builds(
                Step,
                st.sampled_from((1, 2, 3, 4)),
                st.sampled_from(Op),
                st.sampled_from("xyz"),
            ),
            max_size=14,
        ),
        st.one_of(st.none(), st.permutations((0, 1, 2, 3))),
    )
    # The textbook cases: a late write under a younger reader's timestamp,
    # an own-write re-read, two writers with a reader between — and the
    # rewritten-entity regression above.
    @example([read(1, "x"), read(2, "x"), write(1, "x")], None)
    @example([write(1, "x"), write(1, "x"), read(1, "x")], None)
    @example(
        [write(1, "x"), read(2, "x"), write(3, "x"), read(2, "x")], None
    )
    @example(
        list(
            parse_schedule("W1(x) W1(x) W1(z) R2(z) W2(w) R3(w) R3(x) W2(x)")
        ),
        None,
    )
    def test_every_accepted_prefix_replays_in_timestamp_order(
        self, steps, primes
    ):
        """Whatever is accepted — repeated own writes included — the
        committed (s, V) is what a serial run in ``serialization_order()``
        serves (the auditor's tier-0 replay)."""
        sched = MVTOScheduler()
        for txn, seq in zip((1, 2, 3, 4), primes or ()):
            sched.prime_transaction(txn, seq)
        for step in steps:
            if not sched.submit(step):
                break
        accepted = Schedule(tuple(sched.accepted_steps))
        vf = sched.version_function()
        assert order_serves_fixed(
            accepted,
            sched.serialization_order(),
            {read: vf.source_txn(accepted, read) for read in vf},
        ), str(accepted)


class CountedTimestamp(int):
    """A timestamp that counts the comparisons made with it."""

    compared = 0

    def _counting(name):
        def compare(self, other):
            CountedTimestamp.compared += 1
            return getattr(int, name)(self, other)

        return compare

    __lt__ = _counting("__lt__")
    __le__ = _counting("__le__")
    __gt__ = _counting("__gt__")
    __ge__ = _counting("__ge__")
    __eq__ = _counting("__eq__")
    __ne__ = _counting("__ne__")
    __hash__ = int.__hash__
    del _counting


class TestChainSearchIsLogarithmic:
    """Counts, not wall-clock: a step on an entity with 20 000 versions
    costs a bisect, not a pass over the chain."""

    N = 20_000
    COMPARISONS = 2 * (math.log2(N) + 2)
    LINES = 64

    @pytest.fixture(scope="class")
    def long_chain(self):
        sched = MVTOScheduler()
        for n in range(self.N):
            sched.prime_transaction(n, CountedTimestamp(2 * n))
            assert sched.submit(write(n, "x"))
        # One more transaction, its timestamp in the middle of the chain.
        sched.prime_transaction("mid", CountedTimestamp(self.N + 1))
        return sched

    def measure(self, sched, step):
        lines = 0

        def tracer(frame, event, arg):
            nonlocal lines
            if frame.f_code.co_filename != mvto.__file__:
                return None
            if event == "line":
                lines += 1
            return tracer

        n = len(sched.accepted_steps)
        CountedTimestamp.compared = 0
        sys.settrace(tracer)
        try:
            assert sched.submit(step)
        finally:
            sys.settrace(None)
        compared = CountedTimestamp.compared
        sched.truncate(n)
        return compared, lines

    def test_a_read_bisects(self, long_chain):
        compared, lines = self.measure(long_chain, read("mid", "x"))
        assert 0 < compared <= self.COMPARISONS
        assert 0 < lines <= self.LINES

    def test_a_write_bisects(self, long_chain):
        compared, lines = self.measure(long_chain, write("mid", "x"))
        assert 0 < compared <= self.COMPARISONS
        assert 0 < lines <= self.LINES
