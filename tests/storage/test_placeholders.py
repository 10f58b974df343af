"""Placeholder versions: lifecycle, counting, sharded aggregation."""

import sys
import threading

import pytest

from repro.storage.mvstore import (
    MultiversionStore,
    PlaceholderState,
    UNWRITTEN,
)
from repro.storage.sharded import ShardedMultiversionStore


class TestLifecycle:
    def test_reserve_fixes_chain_position(self):
        store = MultiversionStore({"x": 1})
        slot = store.reserve("x", "A", 0)
        assert slot.is_placeholder
        assert slot.state is PlaceholderState.PENDING
        assert slot.value is UNWRITTEN
        assert store.at_position("x", 0) is slot
        # A later normal install lands after the reserved slot.
        later = store.install("x", "B", 9, 1)
        assert store.versions("x")[-2:] == [slot, later]

    def test_fill_publishes_and_wakes(self):
        store = MultiversionStore()
        slot = store.reserve("x", "A", 0)
        assert not slot.decided
        store.fill(slot, 42)
        assert slot.state is PlaceholderState.FILLED
        assert slot.materialized
        assert slot.value == 42
        assert slot.wait(0)  # event already set

    def test_fill_twice_is_a_bug(self):
        store = MultiversionStore()
        slot = store.reserve("x", "A", 0)
        store.fill(slot, 1)
        with pytest.raises(ValueError):
            store.fill(slot, 2)

    def test_poison_is_idempotent_and_terminal(self):
        store = MultiversionStore()
        slot = store.reserve("x", "A", 0)
        store.poison(slot)
        store.poison(slot)  # idempotent
        assert slot.state is PlaceholderState.POISONED
        assert slot.wait(0)
        with pytest.raises(ValueError):
            store.fill(slot, 1)

    def test_poison_after_fill_is_a_bug(self):
        store = MultiversionStore()
        slot = store.reserve("x", "A", 0)
        store.fill(slot, 1)
        with pytest.raises(ValueError):
            store.poison(slot)

    def test_lifecycle_methods_reject_normal_versions(self):
        store = MultiversionStore()
        version = store.install("x", "A", 1, 0)
        with pytest.raises(ValueError):
            store.fill(version, 2)
        with pytest.raises(ValueError):
            store.poison(version)

    def test_identity_semantics(self):
        store = MultiversionStore()
        a = store.reserve("x", "A", 0)
        b = store.reserve("x", "A", 1)
        assert a != b
        assert len({a, b}) == 2
        store.fill(a, 5)
        # Hash is stable across the fill (identity, not field hash).
        assert a in {a, b}


class TestCounting:
    """Regression: aggregation must skip unmaterialized placeholders."""

    def test_version_count_skips_pending(self):
        store = MultiversionStore({"x": 1})
        store.install("x", "A", 2, 0)
        assert store.version_count() == 2
        slot = store.reserve("x", "B", 1)
        assert store.version_count() == 2
        assert store.placeholder_count() == 1
        store.fill(slot, 3)
        assert store.version_count() == 3
        assert store.placeholder_count() == 0

    def test_removed_poisoned_slot_rebalances_counts(self):
        store = MultiversionStore({"x": 1})
        slot = store.reserve("x", "A", 0)
        store.poison(slot)
        assert store.version_count() == 1
        assert store.placeholder_count() == 1
        store.remove(slot)
        assert store.version_count() == 1
        assert store.placeholder_count() == 0
        assert store.versions("x") == [store.at_position("x", None)]

    def test_final_state_skips_unmaterialized_tails(self):
        store = MultiversionStore({"x": 1})
        store.install("x", "A", 2, 0)
        store.reserve("x", "B", 1)
        assert store.final_state() == {"x": 2}


class TestShardedAggregation:
    """Regression: sharded stats use the same skip rule as the shards."""

    def build(self):
        store = ShardedMultiversionStore(4, {f"e{k}": k for k in range(8)})
        slots = [
            store.reserve(f"e{k}", f"w{k}", k) for k in range(8)
        ]
        return store, slots

    def test_version_count_and_placeholder_count(self):
        store, slots = self.build()
        assert store.version_count() == 8  # initials only
        assert store.placeholder_count() == 8
        for slot in slots[:3]:
            store.fill(slot, 0)
        assert store.version_count() == 11
        assert store.placeholder_count() == 5

    def test_snapshot_stats_split_versions_and_placeholders(self):
        store, slots = self.build()
        store.fill(slots[0], 0)
        stats = store.snapshot_stats()
        assert sum(row["versions"] for row in stats) == store.version_count()
        assert (
            sum(row["placeholders"] for row in stats)
            == store.placeholder_count()
            == 7
        )

    def test_final_state_skips_pending_slots(self):
        store, slots = self.build()
        store.fill(slots[2], 99)
        state = store.final_state()
        assert state["e2"] == 99
        assert state["e0"] == 0  # pending slot skipped, base shows


class TestWaitOnDemand:
    """The wake-up event exists only once a reader actually blocks."""

    @pytest.mark.parametrize("decide", ["fill", "poison"])
    def test_wait_on_a_decided_slot_allocates_nothing(self, decide):
        store = MultiversionStore()
        slot = store.reserve("x", "A", 0)
        if decide == "fill":
            store.fill(slot, 1)
        else:
            store.poison(slot)
        assert slot.wait() is True
        assert slot.wait(0) is True
        assert slot._event is None

    def test_reserved_filled_never_waited_on_never_allocates(self):
        store = MultiversionStore()
        slot = store.reserve("x", "A", 0)
        store.fill(slot, 1)
        assert slot._event is None

    def test_timed_out_wait_reports_undecided(self):
        store = MultiversionStore()
        slot = store.reserve("x", "A", 0)
        assert slot.wait(0.01) is False
        assert slot._event is not None
        store.fill(slot, 1)
        assert slot.wait(0) is True

    @pytest.mark.parametrize("early_waiter", [False, True])
    def test_poison_wakes_every_waiter_for_good(self, early_waiter):
        """A reader re-binds past a poisoned slot only because poison is
        terminal: a parked waiter wakes to POISONED, every later wait
        returns at once, and the slot can never be filled after all."""
        store = MultiversionStore()
        slot = store.reserve("x", "A", 0)
        if early_waiter:  # the poison below then sets an existing event
            assert slot.wait(0.01) is False
        seen = []
        parked = threading.Event()

        def wait_for_it():
            parked.set()
            seen.append((slot.wait(10), slot.state))

        waiter = threading.Thread(target=wait_for_it)
        waiter.start()
        parked.wait(10)
        store.poison(slot)
        waiter.join(10)
        assert not waiter.is_alive()
        assert seen == [(True, PlaceholderState.POISONED)]
        assert slot.wait(0) is True
        with pytest.raises(ValueError):
            store.fill(slot, 7)
        assert slot.state is PlaceholderState.POISONED

    @pytest.mark.parametrize("decide", ["fill", "poison"])
    @pytest.mark.parametrize("line", [1, 2, 3])
    def test_decision_landing_inside_wait_is_not_lost(self, decide, line):
        """The race the stress test below can only hope to hit, forced:
        the slot is decided just before the ``line``-th line of ``wait``
        runs — before the PENDING check, between the check and the
        event's publication, between publication and the re-check."""
        store = MultiversionStore()
        slot = store.reserve("x", "A", 0)
        land = {
            "fill": lambda: store.fill(slot, 1),
            "poison": lambda: store.poison(slot),
        }[decide]
        lines = 0

        def trace(frame, event, arg):
            nonlocal lines
            if frame.f_code is not type(slot).wait.__code__:
                return None
            if event == "line":
                lines += 1
                if lines == line:
                    land()
            return trace

        before = sys.gettrace()
        sys.settrace(trace)
        try:
            woke = slot.wait(0.5)
        finally:
            sys.settrace(before)
        assert slot.decided  # the line was reached, the decision landed
        assert woke is True  # a lost wake-up sleeps out the timeout

    def test_racing_waiters_all_wake_to_a_decided_slot(self):
        """No lost wake-up: the first waiter publishes the event while
        another thread decides the slot; whichever order the two land in,
        every waiter returns True and sees the decision."""
        waiters, rounds = 8, 300
        store = MultiversionStore()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for round_ in range(rounds):
                slot = store.reserve("x", "A", round_)
                line = threading.Barrier(waiters + 1)
                seen = []

                def wait_for_it():
                    line.wait(10)
                    seen.append((slot.wait(10), slot.decided))

                def decide():
                    line.wait(10)
                    if round_ % 2:
                        store.fill(slot, round_)
                    else:
                        store.poison(slot)

                threads = [
                    threading.Thread(target=wait_for_it)
                    for _ in range(waiters)
                ]
                # the decider joins the line early, in the middle or last
                threads.insert(
                    round_ % (waiters + 1), threading.Thread(target=decide)
                )
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(10)
                assert not any(thread.is_alive() for thread in threads)
                assert seen == [(True, True)] * waiters, round_
        finally:
            sys.setswitchinterval(interval)
