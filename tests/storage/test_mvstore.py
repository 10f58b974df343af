"""The multiversion store."""

import math
import sys

import pytest

from repro.model.schedules import T_INIT
from repro.storage import mvstore
from repro.storage.mvstore import MultiversionStore


class TestVersionChains:
    def test_initial_version(self):
        store = MultiversionStore()
        v = store.latest("x")
        assert v.is_initial and v.writer == T_INIT
        assert v.value == ("init", "x")

    def test_custom_initial_values(self):
        store = MultiversionStore({"x": 42})
        assert store.latest("x").value == 42

    def test_install_appends(self):
        store = MultiversionStore()
        store.install("x", 1, "v1", position=0)
        store.install("x", 2, "v2", position=3)
        chain = store.versions("x")
        assert [v.value for v in chain] == [("init", "x"), "v1", "v2"]
        assert store.latest("x").value == "v2"

    def test_at_position(self):
        store = MultiversionStore()
        store.install("x", 1, "v1", position=0)
        assert store.at_position("x", 0).value == "v1"
        assert store.at_position("x", None).is_initial

    def test_at_position_missing_raises(self):
        store = MultiversionStore()
        with pytest.raises(KeyError):
            store.at_position("x", 5)

    def test_old_versions_remain_readable(self):
        """The defining property of the multiversion store."""
        store = MultiversionStore()
        store.install("x", 1, "old", 0)
        store.install("x", 2, "new", 1)
        assert store.at_position("x", 0).value == "old"

    def test_final_state_and_counts(self):
        store = MultiversionStore()
        store.install("x", 1, "a", 0)
        store.install("y", 2, "b", 1)
        assert store.final_state() == {"x": "a", "y": "b"}
        assert store.version_count() == 4  # two initials + two installed
        assert set(store.entities()) == {"x", "y"}


class TestChainOrder:
    """Regression: an out-of-order write used to corrupt the chain
    silently; the bisecting lookups rely on the order, so it is refused."""

    @pytest.mark.parametrize("write", ["install", "reserve"])
    @pytest.mark.parametrize("position", [5, 4, 0, -1])
    def test_position_at_or_below_the_tail_is_refused(self, write, position):
        store = MultiversionStore()
        store.install("x", "A", "a", 2)
        tail = store.reserve("x", "B", 5)
        args = ("C", "c", position) if write == "install" else ("C", position)
        with pytest.raises(ValueError, match="out-of-order install"):
            getattr(store, write)("x", *args)
        assert store.latest("x") is tail
        assert (store.version_count(), store.placeholder_count()) == (2, 1)
        # the tail may go and its position be taken again
        store.remove(tail)
        assert store.install("x", "C", "c", 5).position == 5


class TestRemove:
    def test_remove_updates_all_lookup_paths(self):
        store = MultiversionStore()
        store.install("x", 1, "a", 0)
        doomed = store.install("x", 2, "b", 1)
        store.remove(doomed)
        assert store.latest("x").value == "a"
        assert store.version_count() == 2
        with pytest.raises(KeyError):
            store.at_position("x", 1)

    def test_remove_mid_chain_version(self):
        store = MultiversionStore()
        store.install("x", 1, "a", 0)
        mid = store.install("x", 2, "b", 1)
        store.install("x", 3, "c", 2)
        store.remove(mid)
        assert [v.value for v in store.versions("x")] == [
            ("init", "x"), "a", "c",
        ]

    def test_remove_initial_version_rejected(self):
        store = MultiversionStore()
        with pytest.raises(ValueError):
            store.remove(store.at_position("x", None))

    def test_remove_unknown_version_raises(self):
        store = MultiversionStore()
        v = store.install("x", 1, "a", 0)
        store.remove(v)
        with pytest.raises(KeyError):
            store.remove(v)


class TestPrune:
    def test_prune_keeps_base_and_later_versions(self):
        store = MultiversionStore()
        for k in range(4):
            store.install("x", k, f"v{k}", k)
        assert store.prune_before("x", 2) == 2  # initial and v0
        assert [v.value for v in store.versions("x")] == ["v1", "v2", "v3"]
        assert store.at_position("x", 1).value == "v1"
        assert store.version_count() == 3

    def test_prune_everything_leaves_latest(self):
        store = MultiversionStore()
        for k in range(4):
            store.install("x", k, f"v{k}", k)
        assert store.prune_before("x", 100) == 4
        assert [v.value for v in store.versions("x")] == ["v3"]

    def test_prune_untouched_entity_is_noop(self):
        store = MultiversionStore()
        assert store.prune_before("ghost", 5) == 0


class CountedPosition(int):
    """An install position that counts the comparisons made on it."""

    comparisons = 0

    def _counted(name):
        def compare(self, other):
            CountedPosition.comparisons += 1
            return getattr(int, name)(self, other)

        return compare

    __lt__, __le__, __gt__, __ge__ = map(
        _counted, ("__lt__", "__le__", "__gt__", "__ge__")
    )
    __hash__ = int.__hash__


def work_of(call) -> tuple[int, int]:
    """(lines of mvstore.py executed, position comparisons) by ``call``."""
    lines = 0

    def trace(frame, event, arg):
        nonlocal lines
        if frame.f_code.co_filename != mvstore.__file__:
            return None
        if event == "line":
            lines += 1
        return trace

    CountedPosition.comparisons = 0
    before = sys.gettrace()
    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(before)
    return lines, CountedPosition.comparisons


class TestChainSearchIsLogarithmic:
    """Counts, not wall-clock: on a 20 000-version chain a removal, a
    ``latest_before`` or an ``at_position`` runs a fixed handful of the
    store's lines and at most ~log2(n) position comparisons — a walk
    over the chain would run tens of thousands of either."""

    N = 20_000
    #: one bisect of the position list, with a spare comparison or two.
    COMPARISONS = math.ceil(math.log2(N)) + 2
    LINES = 64

    @pytest.fixture(scope="class")
    def chain(self):
        store = MultiversionStore()
        versions = [
            store.install("x", k % 5, k, CountedPosition(2 * k))
            for k in range(self.N)
        ]
        return store, versions

    @pytest.mark.parametrize("where", [1, N // 2, N - 2])
    def test_latest_before(self, chain, where):
        store, versions = chain
        found = []
        lines, comparisons = work_of(
            lambda: found.append(
                store.latest_before("x", CountedPosition(2 * where + 1))
            )
        )
        assert found == [versions[where]]
        assert 0 < comparisons <= self.COMPARISONS
        assert lines <= self.LINES

    @pytest.mark.parametrize("where", [0, N // 2, N - 2])
    def test_at_position(self, chain, where):
        store, versions = chain
        found = []
        lines, comparisons = work_of(
            lambda: found.append(
                store.at_position("x", CountedPosition(2 * where))
            )
        )
        assert found == [versions[where]]
        assert 0 < comparisons <= self.COMPARISONS
        assert lines <= self.LINES
        # an odd position was never installed; None is still the initial
        with pytest.raises(KeyError):
            store.at_position("x", 2 * where + 1)
        assert store.at_position("x", None).is_initial

    @pytest.mark.parametrize("where", [N - 1, N // 2 + 1, 3])
    def test_remove(self, chain, where):
        store, versions = chain
        doomed = versions[where]
        lines, comparisons = work_of(lambda: store.remove(doomed))
        assert 0 < comparisons <= self.COMPARISONS
        assert lines <= self.LINES
        assert store.latest_before("x", doomed.position + 1) is (
            versions[where - 1]
        )
        with pytest.raises(KeyError):
            store.remove(doomed)
