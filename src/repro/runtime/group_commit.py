"""Epoch-batched group commit with a recoverability-safe flush rule.

Transactions that finished every step and won every shard's vote are not
durably committed one by one; they accumulate in a *batch* and commit
together when the batch is full (``batch_size``) or a shard's epoch needs
to close (a forced flush).  Batching is what lets the shard workers keep
executing instead of synchronizing on every commit — the group-commit
idea of Larson et al., with the engine's commit-dependency bookkeeping
deciding *which* transactions a batch may contain.

The flush rule is the engine's recoverability rule lifted to batches: a
transaction flushes only when every transaction it read from is in the
same batch or an earlier flushed one.  Members that fail the rule are
*held over* to the next flush, never dropped.  The rule is computed as a
greatest fixpoint, so mutually-dependent transactions (dirty reads in
both directions — the serial driver's "pending cycle") flush together in
one batch instead of deadlocking: inside the batch, each per-shard engine
orders the actual commits by its local read-from dependencies.
"""

# repro: deterministic-contract — equal seeds must yield byte-identical output

from __future__ import annotations

from typing import Callable, Hashable, Iterable

from repro.runtime.metrics import GroupCommitStats

#: logical transaction id, the unit of group commit.
TxnKey = Hashable


class GroupCommitLog:
    """The batch of voted transactions awaiting durable commit.

    Members are *tickets* — any object with a ``key`` attribute holding
    the logical transaction id.  Dependency extraction is delegated to
    the dispatcher (which owns the per-shard attempts), keeping this
    class pure batching policy.  The contract: ``deps_of`` reports only
    dependencies that are **not yet durably committed** (the dispatcher
    filters COMMITTED attempts out, and commits happen nowhere but a
    flush).  That convention is what keeps the log's state bounded by
    the live batch — it never needs a grows-forever record of every
    transaction it ever flushed.
    """

    def __init__(
        self, batch_size: int, stats: GroupCommitStats | None = None
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.batch_size = batch_size
        self.stats = stats if stats is not None else GroupCommitStats()
        self._batch: list = []

    def __len__(self) -> int:
        return len(self._batch)

    @property
    def full(self) -> bool:
        return len(self._batch) >= self.batch_size

    def add(self, ticket) -> None:
        """Admit a voted transaction to the current batch."""
        self._batch.append(ticket)

    def plan(
        self, deps_of: Callable[[object], set[TxnKey]]
    ) -> tuple[list, dict[TxnKey, set[TxnKey]]]:
        """The flushable subset of the batch, plus its dependency map.

        :meth:`commit_closure` over the whole batch voting yes: a member
        falls out only for a live read-from dependency outside the
        candidate set (an earlier-flushed dependency is already
        committed, so ``deps_of`` no longer reports it).  What survives
        satisfies the flush rule; dependency cycles survive together.
        Members discarded here stay in the batch; :meth:`settle` counts
        them as held over once per executed flush round (planning itself
        is free to run every dispatcher tick while the runtime drains).
        """
        dep_map = {t.key: set(deps_of(t)) for t in self._batch}
        by_key = {t.key: t for t in self._batch}
        flushable = self.commit_closure(dict.fromkeys(by_key, True), dep_map)
        return [t for key, t in by_key.items() if key in flushable], dep_map

    def commit_closure(
        self,
        votes: dict[TxnKey, bool],
        dep_map: dict[TxnKey, set[TxnKey]],
    ) -> set[TxnKey]:
        """Which voted candidates may durably commit, given shard votes.

        Greatest fixpoint: start from the yes votes (a no means the
        attempt died since batching) and discard any member with a
        dependency outside the set, transitively.  Pure computation: the
        dispatcher runs it between a flush's votes and its applies.
        """
        committed = {key for key, ok in votes.items() if ok}
        changed = True
        while changed:
            changed = False
            # repro: lint-ignore[D101] fixpoint is discard-order-free
            for key in list(committed):
                unmet = dep_map.get(key, set()) - committed
                if unmet:
                    committed.discard(key)
                    changed = True
        return committed

    def settle(
        self,
        committed: Iterable,
        dead: Iterable,
        forced: bool = False,
    ) -> None:
        """Record a flush round: remove settled members, update stats."""
        committed = list(committed)
        dead = list(dead)
        gone = {id(t) for t in committed} | {id(t) for t in dead}
        self._batch = [t for t in self._batch if id(t) not in gone]
        stats = self.stats
        stats.batches += 1
        stats.flushed += len(committed)
        stats.flush_aborts += len(dead)
        #: whatever the flush round left behind missed it — held over.
        stats.held_over += len(self._batch)
        stats.largest_batch = max(stats.largest_batch, len(committed))
        if forced:
            stats.forced += 1
