"""Schedule and transaction streams for stream-driven experiments.

Two kinds of streams live here:

* :func:`schedule_stream` — random whole schedules for the
  acceptance-rate experiments (E10).
* :class:`ShardedBankScenario` — an open-ended transfer stream laid out
  for the parallel shard runtime (E16): accounts are pre-bucketed per
  shard, so the scenario can dial the exact mix of shard-local
  ("cold"), hot-shard-contended, and cross-shard transactions — the
  knobs that decide how much parallelism sharding can unlock.
* :class:`ReadMostlyScenario` — a ~90/10 read/write stream with hot-key
  skew (E17's second workload): long multi-key reads hammering a few
  hot accounts that a trickle of transfers keeps mutating — the regime
  where abort-free planned reads should shine, because every one of
  those reads is a potential abort under optimistic execution.
"""

# repro: deterministic-contract — equal seeds must yield byte-identical output

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.model.enumeration import random_schedule
from repro.model.schedules import Schedule
from repro.model.steps import Entity
from repro.model.transactions import Transaction
from repro.storage.executor import Program
from repro.storage.sharded import shard_of
from repro.workloads.bank import (
    audit_transaction,
    total_balance,
    transfer_program,
    transfer_transaction,
)


def schedule_stream(
    n_schedules: int,
    n_txns: int,
    entities: Sequence[Entity],
    steps_per_txn: int,
    seed: int,
    read_fraction: float = 0.5,
    zipf_skew: float = 0.0,
) -> Iterator[Schedule]:
    """A reproducible stream of random schedules.

    Each schedule draws a fresh random transaction system and a uniform
    shuffle of it; ``zipf_skew`` concentrates accesses on hot entities to
    sweep contention (experiment E10's x-axis).
    """
    rng = random.Random(seed)
    for _ in range(n_schedules):
        yield random_schedule(
            n_txns, entities, steps_per_txn, rng, read_fraction, zipf_skew
        )


def entities_by_shard(
    n_shards: int, per_shard: int, prefix: str = "acct"
) -> list[list[Entity]]:
    """``per_shard`` entity names for each of ``n_shards`` shards.

    Probes ``{prefix}0, {prefix}1, ...`` and buckets by the same crc32
    hash the sharded store uses, so a scenario can *construct*
    shard-local or cross-shard access patterns instead of hoping the
    hash cooperates.  Deterministic: same arguments, same names.
    """
    if n_shards < 1 or per_shard < 1:
        raise ValueError("n_shards and per_shard must be >= 1")
    buckets: list[list[Entity]] = [[] for _ in range(n_shards)]
    candidate = 0
    # crc32 is uniform enough that a few hundred probes fill any sane
    # layout; the bound only guards pathological arguments.
    limit = 1000 * n_shards * per_shard
    while any(len(bucket) < per_shard for bucket in buckets):
        if candidate >= limit:  # pragma: no cover - defensive
            raise ValueError(
                f"could not fill {n_shards}x{per_shard} shard buckets"
            )
        name = f"{prefix}{candidate}"
        candidate += 1
        bucket = buckets[shard_of(name, n_shards)]
        if len(bucket) < per_shard:
            bucket.append(name)
    return buckets


@dataclass(kw_only=True)
class ShardedAccountsScenario:
    """Shared layout of the sharded account scenarios.

    Accounts are pre-bucketed per shard (:func:`entities_by_shard`), all
    start at ``initial_balance``, and the integrity oracle is the bank
    workload's conservation invariant — transfers never create or
    destroy money, whatever subset of the stream commits.

    Keyword-only on purpose: extracting this base reordered the
    subclasses' field lists, so positional construction would silently
    bind the wrong knobs — with ``kw_only`` it cannot compile at all.
    """

    n_shards: int = 4
    accounts_per_shard: int = 4
    initial_balance: int = 100
    seed: int = 0
    by_shard: list[list[Entity]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.accounts_per_shard < 2:
            # A shard-local transfer pair needs two distinct accounts.
            raise ValueError("accounts_per_shard must be >= 2")
        self.by_shard = entities_by_shard(
            self.n_shards, self.accounts_per_shard
        )

    @property
    def accounts(self) -> list[Entity]:
        return [a for bucket in self.by_shard for a in bucket]

    def initial_state(self) -> dict[Entity, int]:
        return {a: self.initial_balance for a in self.accounts}

    def invariant_holds(self, state: dict[Entity, int]) -> bool:
        """Conservation: transfers never create or destroy money."""
        full = dict(self.initial_state())
        full.update(state)
        expected = self.initial_balance * len(self.accounts)
        return total_balance(full) == expected


@dataclass(kw_only=True)
class ShardedBankScenario(ShardedAccountsScenario):
    """A transfer stream with explicit shard locality and skew.

    Each transaction moves money between two accounts (the bank
    workload's ``R R W W`` transfer).  The account pair is drawn by
    locality:

    * with probability ``hot_fraction``: both accounts from the *hot*
      shards (``hot_shards`` of them) — shard-local but contended;
    * else with probability ``cross_fraction``: accounts from two
      different shards — exercises the all-shards-vote commit path;
    * otherwise: both accounts from one uniformly chosen shard —
      the cold, embarrassingly parallel majority.

    ``audit_every`` mixes in read-only multi-shard audits (long
    readers), the workload multiversion schedulers exist for.
    """

    cross_fraction: float = 0.1
    hot_fraction: float = 0.0
    hot_shards: int = 1
    audit_every: int = 0
    audit_width: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.cross_fraction <= 1.0:
            raise ValueError("cross_fraction must be in [0, 1]")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        if not 1 <= self.hot_shards <= self.n_shards:
            raise ValueError("hot_shards must be in [1, n_shards]")
        super().__post_init__()

    def _pick_pair(self, rng: random.Random) -> tuple[Entity, Entity]:
        if self.hot_fraction > 0 and rng.random() < self.hot_fraction:
            pool = [
                a
                for bucket in self.by_shard[: self.hot_shards]
                for a in bucket
            ]
            pair = rng.sample(pool, 2)
        # A single-shard layout has no second shard to cross into:
        # every transfer is shard-local there.
        elif self.n_shards > 1 and rng.random() < self.cross_fraction:
            first, second = rng.sample(range(self.n_shards), 2)
            pair = [
                rng.choice(self.by_shard[first]),
                rng.choice(self.by_shard[second]),
            ]
        else:
            bucket = self.by_shard[rng.randrange(self.n_shards)]
            pair = rng.sample(bucket, 2)
        return pair[0], pair[1]

    def transaction_stream(
        self, n_transactions: int
    ) -> Iterator[tuple[Transaction, Program | None]]:
        """A reproducible stream of ``(transaction, program)`` pairs.

        Unlike the bank/inventory workloads (whose shared RNG makes a
        stream single-shot per instance), each call derives a fresh RNG
        from the seed, so one scenario can replay its stream — that is
        what lets a benchmark feed the identical stream to the serial
        engine and the runtime.
        """
        rng = random.Random(f"sharded-bank-stream:{self.seed}")
        audits = 0
        for k in range(1, n_transactions + 1):
            if self.audit_every and k % self.audit_every == 0:
                audits += 1
                width = min(self.audit_width, len(self.accounts))
                audited = rng.sample(self.accounts, width)
                yield audit_transaction(f"a{audits}", audited), None
                continue
            source, target = self._pick_pair(rng)
            amount = rng.randint(1, 20)
            yield (
                transfer_transaction(f"t{k}", source, target),
                transfer_program(amount),
            )


class InjectedAbort(RuntimeError):
    """The exception :func:`failing_program` raises (workload-injected)."""


def failing_program(label: str) -> Program:
    """A write program that always raises — a seeded *logic* abort.

    The raise happens at the first write, after the reads: exactly the
    abort class planning cannot remove, so every planned reader of the
    transaction's reserved slots is poisoned.  The injected failure is
    stream-decided (not value-dependent), so every execution mode sees
    the identical abort set for equal seeds.
    """

    def program(write_index: int, reads: list):
        raise InjectedAbort(label)

    return program


@dataclass(kw_only=True)
class AbortHeavyScenario(ShardedBankScenario):
    """A transfer stream where a seeded fraction logic-aborts.

    Identical to :class:`ShardedBankScenario` except that each transfer
    independently carries an always-raising program with probability
    ``abort_fraction`` — the abort pressure the planner family absorbs
    by re-binding each reader of an aborted writer to the next version
    down the chain, so only the aborting transfers are lost.  E17 pins
    that the planner commits what the serial engine commits, and the
    property tests replay such streams against a serial oracle.

    Aborting transfers write nothing, so the conservation invariant
    holds for whatever subset of the stream commits — under any mode.
    """

    abort_fraction: float = 0.2

    def __post_init__(self) -> None:
        if not 0.0 <= self.abort_fraction <= 1.0:
            raise ValueError("abort_fraction must be in [0, 1]")
        super().__post_init__()

    def transaction_stream(
        self, n_transactions: int
    ) -> Iterator[tuple[Transaction, Program | None]]:
        """A replayable stream of ``(transaction, program)`` pairs.

        A fresh RNG per call (same contract as the other sharded
        scenarios), so the identical stream — including the identical
        abort set — feeds every mode under comparison.
        """
        rng = random.Random(f"abort-heavy-stream:{self.seed}")
        for k in range(1, n_transactions + 1):
            source, target = self._pick_pair(rng)
            amount = rng.randint(1, 20)
            fails = rng.random() < self.abort_fraction
            yield (
                transfer_transaction(f"t{k}", source, target),
                failing_program(f"t{k}") if fails
                else transfer_program(amount),
            )


@dataclass(kw_only=True)
class ReadMostlyScenario(ShardedAccountsScenario):
    """A read-heavy stream with hot-key skew over sharded bank accounts.

    Roughly ``read_fraction`` of the stream are read-only multi-key
    audits (``R R R ...``, ``read_width`` accounts each); the rest are
    transfers (``R R W W``) that keep the data moving so reads cannot be
    answered from never-changing state.  Every account pick — for reads
    and writes alike — lands in the *hot pool* (the first ``hot_keys``
    accounts of shard 0) with probability ``hot_fraction``, so a few
    keys absorb most of the traffic.

    Under optimistic execution each hot read races the hot writes and
    pays for losing with an abort and a replay; the batch planner binds
    those reads to exact versions up front, which is precisely the
    workload where abort-free execution should pull ahead (E17's second
    table).  The conservation invariant carries over from the bank
    workload: audits move no money, transfers preserve the total.
    """

    read_fraction: float = 0.9
    hot_fraction: float = 0.6
    hot_keys: int = 2
    read_width: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        if self.read_width < 1:
            raise ValueError("read_width must be >= 1")
        super().__post_init__()
        if not 1 <= self.hot_keys <= len(self.accounts):
            raise ValueError("hot_keys must be in [1, n_accounts]")

    @property
    def hot_pool(self) -> list[Entity]:
        return self.accounts[: self.hot_keys]

    def _pick_distinct(self, rng: random.Random, n: int) -> list[Entity]:
        """``n`` distinct accounts, each drawn hot-first.

        Each slot tries the hot pool with probability ``hot_fraction``
        and falls back to the full account list once the chosen pool has
        no unpicked member left — so the skew saturates gracefully
        instead of rejection-sampling forever when ``hot_fraction`` is
        high and ``n`` exceeds the hot pool.
        """
        picked: list[Entity] = []
        for _ in range(n):
            pool = (
                self.hot_pool
                if rng.random() < self.hot_fraction
                else self.accounts
            )
            candidates = [a for a in pool if a not in picked]
            if not candidates:
                candidates = [a for a in self.accounts if a not in picked]
            picked.append(rng.choice(candidates))
        return picked

    def transaction_stream(
        self, n_transactions: int
    ) -> Iterator[tuple[Transaction, Program | None]]:
        """A replayable stream of ``(transaction, program)`` pairs.

        Like :class:`ShardedBankScenario`, each call derives a fresh RNG
        from the seed, so the identical stream can be fed to every
        execution mode under comparison.
        """
        rng = random.Random(f"read-mostly-stream:{self.seed}")
        for k in range(1, n_transactions + 1):
            if rng.random() < self.read_fraction:
                width = min(self.read_width, len(self.accounts))
                audited = self._pick_distinct(rng, width)
                yield audit_transaction(f"q{k}", audited), None
                continue
            source, target = self._pick_distinct(rng, 2)
            amount = rng.randint(1, 20)
            yield (
                transfer_transaction(f"t{k}", source, target),
                transfer_program(amount),
            )
