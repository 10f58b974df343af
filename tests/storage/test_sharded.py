"""Sharded multiversion store: routing, parity, balance."""

import pytest

from repro.storage.mvstore import MultiversionStore
from repro.storage.sharded import ShardedMultiversionStore, shard_of


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
            assert store.latest(entity).value == value
            owner = store.shard_for(entity)
            assert owner.latest(entity).value == value

    def test_single_shard_degenerates_to_one_store(self):
        store = ShardedMultiversionStore(1)
        store.install("x", 1, "v", 0)
        assert store.shards[0].version_count() == store.version_count()

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            ShardedMultiversionStore(0)


class TestInterfaceParity:
    def apply_ops(self, store):
        store.install("x", 1, "a", 0)
        store.install("y", 2, "b", 1)
        store.install("x", 2, "c", 2)
        v = store.install("x", 1, "d", 3)
        store.remove(v)
        store.prune_before("x", 2)
        return {
            "latest_x": store.latest("x").value,
            "before_x": store.latest_before("x", 2).value,
            "count": store.version_count(),
            "final": store.final_state(),
            "entities": sorted(store.entities()),
        }

    def test_matches_plain_store_on_same_operations(self):
        plain = self.apply_ops(MultiversionStore({"x": 0, "y": 0}))
        sharded = self.apply_ops(
            ShardedMultiversionStore(4, {"x": 0, "y": 0})
        )
        assert plain == sharded


class TestBalance:
    def test_entities_spread_across_shards(self):
        store = ShardedMultiversionStore(4)
        for k in range(40):
            store.install(f"e{k}", 1, k, k)
        occupied = [
            row for row in store.snapshot_stats() if row["versions"] > 0
        ]
        assert len(occupied) == 4  # crc32 spreads 40 names over 4 shards
