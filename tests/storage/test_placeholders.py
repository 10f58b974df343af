"""Placeholder versions: lifecycle and counting."""

import pytest

from repro.storage.mvstore import (
    MultiversionStore,
    PlaceholderState,
    UNWRITTEN,
)


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

    def test_fill_publishes(self):
        store = MultiversionStore()
        slot = store.reserve("x", "A", 0)
        assert not slot.decided
        store.fill(slot, 42)
        assert slot.state is PlaceholderState.FILLED
        assert slot.materialized
        assert slot.value == 42

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
        assert slot.decided
        with pytest.raises(ValueError):
            store.fill(slot, 1)

    def test_poison_after_fill_is_a_bug(self):
        store = MultiversionStore()
        slot = store.reserve("x", "A", 0)
        store.fill(slot, 1)
        with pytest.raises(ValueError):
            store.poison(slot)

    @pytest.mark.parametrize("start, action, end", [
        ("pending", "fill", PlaceholderState.FILLED),
        ("pending", "poison", PlaceholderState.POISONED),
        ("filled", "fill", ValueError),
        ("filled", "poison", ValueError),
        ("poisoned", "fill", ValueError),
        ("poisoned", "poison", PlaceholderState.POISONED),
    ])
    def test_transition_table(self, start, action, end):
        """The whole lifecycle the executor relies on: PENDING decides
        once, FILLED and POISONED are terminal, and a rejected transition
        moves neither the slot nor the store's counters."""
        store = MultiversionStore({"x": 1})
        slot = store.reserve("x", "A", 0)
        if start == "filled":
            store.fill(slot, 5)
        elif start == "poisoned":
            store.poison(slot)
        before = (
            slot.state, slot.value,
            store.version_count(), store.placeholder_count(),
        )
        act = {
            "fill": lambda: store.fill(slot, 9),
            "poison": lambda: store.poison(slot),
        }[action]
        if end is ValueError:
            with pytest.raises(ValueError):
                act()
            after = (
                slot.state, slot.value,
                store.version_count(), store.placeholder_count(),
            )
            assert after == before
            return
        act()
        assert slot.state is end
        assert slot.decided
        filled = end is PlaceholderState.FILLED
        assert slot.materialized is filled
        assert store.version_count() == 1 + filled
        assert store.placeholder_count() == 1 - filled
        assert store.final_state() == {"x": 9 if filled else 1}

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
