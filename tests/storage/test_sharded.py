"""The shard runtime's store container: routing, aggregates, balance."""

import pytest

from repro.storage.mvstore import MultiversionStore
from repro.storage.sharded import ShardedMultiversionStore, shard_of


def owner(store, entity):
    """The shard ``entity`` routes to, as the runtime's dispatcher finds it."""
    return store.shards[shard_of(entity, store.n_shards)]


class TestRouting:
    def test_shard_of_is_stable_and_in_range(self):
        for entity in ["x", "acct0", "shipped", "stock3"]:
            k = shard_of(entity, 8)
            assert 0 <= k < 8
            assert shard_of(entity, 8) == k  # stable across calls

    def test_initial_values_route_to_owning_shard(self):
        initial = {f"e{k}": k for k in range(20)}
        store = ShardedMultiversionStore(4, initial)
        for entity, value in initial.items():
            assert owner(store, entity).latest(entity).value == value

    def test_single_shard_degenerates_to_one_store(self):
        store = ShardedMultiversionStore(1)
        owner(store, "x").install("x", 1, "v", 0)
        assert store.final_state() == store.shards[0].final_state()
        assert store.final_state() == {"x": "v"}

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            ShardedMultiversionStore(0)


class TestAggregates:
    """What the dispatcher reads across shards uses the shards' own skip
    rule for reserved slots."""

    def build(self):
        store = ShardedMultiversionStore(4, {f"e{k}": k for k in range(8)})
        slots = [
            owner(store, f"e{k}").reserve(f"e{k}", f"w{k}", k)
            for k in range(8)
        ]
        return store, slots

    def test_snapshot_stats_split_versions_and_placeholders(self):
        store, slots = self.build()
        owner(store, "e0").fill(slots[0], 0)
        stats = store.snapshot_stats()
        assert sum(row["versions"] for row in stats) == 9  # 8 initials + 1
        assert sum(row["placeholders"] for row in stats) == 7
        assert sum(row["entities"] for row in stats) == 8

    def test_final_state_skips_pending_slots(self):
        store, slots = self.build()
        owner(store, "e2").fill(slots[2], 99)
        state = store.final_state()
        assert state["e2"] == 99
        assert state["e0"] == 0  # pending slot skipped, base shows


class TestInterfaceParity:
    """The container's shards, each reached through :func:`shard_of`,
    hold what one plain store holds after the same operations."""

    def apply_ops(self, store, route):
        route(store, "x").install("x", 1, "a", 0)
        route(store, "y").install("y", 2, "b", 1)
        route(store, "x").install("x", 2, "c", 2)
        v = route(store, "x").install("x", 1, "d", 3)
        route(store, "x").remove(v)
        slot = route(store, "z").reserve("z", 3, 4)
        route(store, "x").prune_before("x", 2)
        stats = store.snapshot_stats() if route is owner else [{
            "versions": store.version_count(),
            "placeholders": store.placeholder_count(),
            "entities": sum(1 for _ in store.entities()),
        }]
        answers = {
            "latest_x": route(store, "x").latest("x").value,
            "before_x": route(store, "x").latest_before("x", 2).value,
            "latest_z": route(store, "z").latest("z") is slot,
            "final": store.final_state(),
        }
        for column in ("versions", "placeholders", "entities"):
            answers[column] = sum(row[column] for row in stats)
        return answers

    def test_matches_plain_store_on_same_operations(self):
        plain = self.apply_ops(
            MultiversionStore({"x": 0, "y": 0}), lambda store, _: store
        )
        sharded = self.apply_ops(
            ShardedMultiversionStore(4, {"x": 0, "y": 0}), owner
        )
        assert plain == sharded
        # x keeps a and c, y its initial and b, z its initial and a slot
        assert plain["versions"] == 5 and plain["placeholders"] == 1


class TestBalance:
    def test_entities_spread_across_shards(self):
        store = ShardedMultiversionStore(4)
        for k in range(40):
            owner(store, f"e{k}").install(f"e{k}", 1, k, k)
        occupied = [
            row for row in store.snapshot_stats() if row["versions"] > 0
        ]
        assert len(occupied) == 4  # crc32 spreads 40 names over 4 shards
