"""The parallel runtime's per-domain stores: N independent stores.

Partitions entities across ``n_shards`` :class:`MultiversionStore` shards
by a *stable* hash of the entity name (``zlib.crc32`` — Python's builtin
``hash`` is salted per process, which would make runs irreproducible).
Each conflict domain of :class:`repro.runtime.ShardRuntime` runs its
engine on ``shards[d]`` — a plain :class:`MultiversionStore`, the one
:class:`repro.storage.VersionStore` — and the dispatcher routes an
entity with :func:`shard_of` and reads ``final_state`` and
``snapshot_stats`` across the shards.  The container itself is not a
store: nothing calls a version operation on it.  Everything runs on the
caller's thread, and a runtime task never overlaps another one, so no
shard takes a lock and an aggregate always sees every shard between
tasks.
"""

# repro: deterministic-contract — equal seeds must yield byte-identical output

from __future__ import annotations

import functools
import zlib
from typing import Any

from repro.model.steps import Entity
from repro.storage.mvstore import MultiversionStore


@functools.lru_cache(maxsize=1 << 16)
def shard_of(entity: Entity, n_shards: int) -> int:
    """Stable shard index of an entity (crc32 of its name).

    Memoised: the dispatcher routes every step through here, and a hot
    entity is hashed once instead of ``str -> encode -> crc32`` per step.
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

    def final_state(self) -> dict[Entity, Any]:
        """Every shard's :meth:`~MultiversionStore.final_state`, merged."""
        state: dict[Entity, Any] = {}
        for shard in self.shards:
            state.update(shard.final_state())
        return state

    # -- sharding introspection -------------------------------------------

    def snapshot_stats(self) -> list[dict]:
        """Per-shard stats, one row per shard.

        ``versions`` counts materialized versions only; in-flight
        reserved slots appear under ``placeholders`` — each shard's
        :meth:`~MultiversionStore.version_count` skip rule.
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
