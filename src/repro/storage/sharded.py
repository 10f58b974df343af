"""Sharded multiversion store: N independent stores.

Partitions entities across ``n_shards`` :class:`MultiversionStore` shards
by a *stable* hash of the entity name (``zlib.crc32`` — Python's builtin
``hash`` is salted per process, which would make runs irreproducible).
Each shard owns its entities outright, so per-entity operations touch a
single small dict instead of one global one — the layout every later
scaling step (per-shard engines, per-shard GC, multi-backend) builds on.

It is two things.  To the planner it is the partitioned store: it
implements :class:`repro.storage.VersionStore` by routing each call to
the owning shard, and the planning pass finds each entity's owning
shard through its ``shards`` and ``n_shards``.  To the parallel runtime
it is the container of per-domain stores: each domain's engine runs on
``shards[d]`` — a plain :class:`MultiversionStore` — and the dispatcher
reads ``final_state`` and ``snapshot_stats`` across them.  Everything
runs on the caller's thread, and a runtime task never overlaps another
one, so no shard takes a lock and an aggregate always sees every shard
between tasks.
"""

# repro: deterministic-contract — equal seeds must yield byte-identical output

from __future__ import annotations

import functools
import zlib
from typing import Any, Iterator

from repro.model.steps import Entity, TxnId
from repro.storage.mvstore import (
    MultiversionStore,
    PlaceholderVersion,
    Version,
)


@functools.lru_cache(maxsize=1 << 16)
def shard_of(entity: Entity, n_shards: int) -> int:
    """Stable shard index of an entity (crc32 of its name).

    Memoised: the store routes every call through here, and a hot entity
    is hashed once instead of ``str -> encode -> crc32`` per operation.
    The cache is bounded, so a scan over many cold names cannot grow it.
    """
    return zlib.crc32(str(entity).encode("utf-8")) % n_shards


class ShardedMultiversionStore:
    """Entity-hash-partitioned collection of multiversion stores."""

    def __init__(
        self,
        n_shards: int = 8,
        initial: dict[Entity, Any] | None = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = n_shards
        partitioned: list[dict[Entity, Any]] = [{} for _ in range(n_shards)]
        for entity, value in (initial or {}).items():
            partitioned[shard_of(entity, n_shards)][entity] = value
        self.shards: list[MultiversionStore] = [
            MultiversionStore(part) for part in partitioned
        ]

    def shard_for(self, entity: Entity) -> MultiversionStore:
        """The shard that owns ``entity``."""
        return self.shards[shard_of(entity, self.n_shards)]

    # -- VersionStore, delegated per entity ---------------------------------

    def install(
        self, entity: Entity, writer: TxnId, value: Any, position: int
    ) -> Version:
        return self.shard_for(entity).install(entity, writer, value, position)

    def remove(self, version: Version) -> None:
        self.shard_for(version.entity).remove(version)

    def reserve(
        self, entity: Entity, writer: TxnId, position: int
    ) -> PlaceholderVersion:
        return self.shard_for(entity).reserve(entity, writer, position)

    def fill(self, version: PlaceholderVersion, value: Any) -> None:
        self.shard_for(version.entity).fill(version, value)

    def poison(self, version: PlaceholderVersion) -> None:
        self.shard_for(version.entity).poison(version)

    def prune_before(self, entity: Entity, watermark: int) -> int:
        return self.shard_for(entity).prune_before(entity, watermark)

    def latest(self, entity: Entity) -> Version:
        return self.shard_for(entity).latest(entity)

    def latest_before(self, entity: Entity, position: int) -> Version:
        return self.shard_for(entity).latest_before(entity, position)

    def entities(self) -> Iterator[Entity]:
        for shard in self.shards:
            yield from shard.entities()

    def version_count(self) -> int:
        return sum(shard.version_count() for shard in self.shards)

    def placeholder_count(self) -> int:
        return sum(shard.placeholder_count() for shard in self.shards)

    def final_state(self) -> dict[Entity, Any]:
        state: dict[Entity, Any] = {}
        for shard in self.shards:
            state.update(shard.final_state())
        return state

    # -- sharding introspection -------------------------------------------

    def snapshot_stats(self) -> list[dict]:
        """Per-shard stats, one row per shard.

        ``versions`` counts materialized versions only; in-flight
        reserved slots appear under ``placeholders`` — the same skip rule
        as :meth:`version_count`, so the rows always sum to the aggregate.
        """
        return [
            {
                "shard": index,
                "versions": shard.version_count(),
                "placeholders": shard.placeholder_count(),
                "entities": sum(1 for _ in shard.entities()),
            }
            for index, shard in enumerate(self.shards)
        ]
