"""Transaction streams must be seed-deterministic across runs.

The engine/runtime reproducibility contract starts at the workload: two
same-seed workload instances must emit byte-for-byte identical streams
(same transactions *and* same program behaviour), and different seeds
must actually diversify the stream.  ``TestPinnedDigests`` goes further
and pins every registry scenario's stream across versions of the code:
a generator change that moves one RNG draw changes a digest.
"""

import hashlib

import pytest

from repro.storage.sharded import shard_of
from repro.workloads.bank import BankWorkload
from repro.workloads.inventory import InventoryWorkload
from repro.workloads.registry import scenario_factory, scenario_names
from repro.workloads.streams import (
    AbortHeavyScenario,
    InjectedAbort,
    ReadMostlyScenario,
    ShardedBankScenario,
    entities_by_shard,
)

N = 60


def materialize(stream):
    """(transaction, program-fingerprint) pairs for comparison.

    Programs are opaque callables, so they are fingerprinted by their
    outputs on a probe grid covering both write indexes.
    """
    out = []
    for transaction, program in stream:
        if program is None:
            fingerprint = None
        else:
            try:
                fingerprint = tuple(
                    program(k, [100, 200]) for k in range(2)
                )
            except InjectedAbort as error:
                fingerprint = ("aborts", str(error))
        out.append((transaction, fingerprint))
    return out


def bank_stream(seed):
    return materialize(
        BankWorkload(n_accounts=8, hot_fraction=0.5, seed=seed)
        .transaction_stream(N, audit_every=7)
    )


def inventory_stream(seed):
    return materialize(
        InventoryWorkload(n_warehouses=4, seed=seed).transaction_stream(N)
    )


def sharded_stream(seed):
    return materialize(
        ShardedBankScenario(
            n_shards=4, accounts_per_shard=3, cross_fraction=0.3,
            hot_fraction=0.2, seed=seed,
        ).transaction_stream(N)
    )


def read_mostly_stream(seed):
    return materialize(
        ReadMostlyScenario(
            n_shards=2, accounts_per_shard=3, hot_fraction=0.7,
            hot_keys=2, read_width=3, seed=seed,
        ).transaction_stream(N)
    )


def abort_heavy_stream(seed):
    return materialize(
        AbortHeavyScenario(
            n_shards=3, accounts_per_shard=3, cross_fraction=0.3,
            hot_fraction=0.2, abort_fraction=0.3, seed=seed,
        ).transaction_stream(N)
    )


class TestSameSeedIdentical:
    def test_bank(self):
        assert bank_stream(7) == bank_stream(7)

    def test_inventory(self):
        assert inventory_stream(7) == inventory_stream(7)

    def test_sharded_scenario(self):
        assert sharded_stream(7) == sharded_stream(7)

    def test_read_mostly(self):
        assert read_mostly_stream(7) == read_mostly_stream(7)

    def test_abort_heavy(self):
        assert abort_heavy_stream(7) == abort_heavy_stream(7)

    def test_sharded_scenario_replayable_from_one_instance(self):
        """Unlike the shared-RNG workloads, one scenario instance can
        emit its stream twice — what lets a benchmark feed the same
        stream to the serial engine and the runtime."""
        scenario = ShardedBankScenario(seed=7)
        first = materialize(scenario.transaction_stream(N))
        second = materialize(scenario.transaction_stream(N))
        assert first == second


class TestDistinctSeedsDiffer:
    def test_bank(self):
        assert bank_stream(1) != bank_stream(2)

    def test_inventory(self):
        assert inventory_stream(1) != inventory_stream(2)

    def test_sharded_scenario(self):
        assert sharded_stream(1) != sharded_stream(2)

    def test_read_mostly(self):
        assert read_mostly_stream(1) != read_mostly_stream(2)

    def test_abort_heavy(self):
        assert abort_heavy_stream(1) != abort_heavy_stream(2)


#: transactions and seeds of each pinned stream.
PIN_TXNS = 200
PIN_SEEDS = (7, 11)

#: case -> (registry scenario, parameters): every scenario at its
#: defaults, plus the hot, cross-shard and audit branches the defaults
#: leave off.
PIN_CASES = {
    "bank": ("bank", {}),
    "bank-hot-audits": ("bank", {"hot_fraction": 0.5, "audit_every": 7}),
    "inventory": ("inventory", {}),
    "sharded-bank": ("sharded-bank", {}),
    "sharded-bank-hot-audits": ("sharded-bank", {
        "hot_fraction": 0.2, "cross_fraction": 0.3, "audit_every": 5,
    }),
    "abort-heavy": ("abort-heavy", {}),
    "abort-heavy-hot": ("abort-heavy", {"hot_fraction": 0.3}),
    "read-mostly": ("read-mostly", {}),
}

#: (case, seed) -> sha256 of the stream, recorded before the generators
#: stopped rebuilding their account pools per pick.
STREAM_DIGESTS = {
    ("abort-heavy", 7): (
        "a361183530756d83bf78aa62b1fe7b0291e0b0ef206ae361f297bb26394ce039"
    ),
    ("abort-heavy", 11): (
        "3ed3e71056aba67347119c4d19eafbac7142f824a3999f23502a0e65c47d61c5"
    ),
    ("abort-heavy-hot", 7): (
        "0ad180e8160b270d1df5f42eb9547ffe4da9b42b53df8eda9e190d4d65c5ce3f"
    ),
    ("abort-heavy-hot", 11): (
        "456c38eea0b4b747343b50246221d26f4c6e0562aca364d459b818f9f0481b34"
    ),
    ("bank", 7): (
        "5e913c6aa9c807768218841c352a77b2c1e1db9740bae56695894ad4caa8dc3f"
    ),
    ("bank", 11): (
        "c30dc3695b6f6b47824177392d53abbe1514e39f68a25fd2772fafcc6ca5b6d8"
    ),
    ("bank-hot-audits", 7): (
        "26f912e3b7e11d4dc783e0256ef35d29415ed1966e730aa0ca62860e4cdb61b1"
    ),
    ("bank-hot-audits", 11): (
        "f613f4e6e2965821ad382a3d4120f9c1003c2a4075201f4796ea7c314e8a9d1d"
    ),
    ("inventory", 7): (
        "7f70ccb62c85d0a73d566ed8e4ff7b1b3650854a86026c3e032c601c6005840c"
    ),
    ("inventory", 11): (
        "c8b60ce974f372536c5233db1700c289b90ae3315a6f573d8057c0a1254779cb"
    ),
    ("read-mostly", 7): (
        "7a0c11c2f5b002fdbdef350954acfe97b67b8aee9baf646e0f046aeb09f121e5"
    ),
    ("read-mostly", 11): (
        "534aab8440a66bec0bbf94efcc8a3e42dc387bdfe6d5b4a86e56051fbc9cb95b"
    ),
    ("sharded-bank", 7): (
        "7ef33cc5d5a60267d6f2e80fe2dcc47a9287a3539e7ad1b3c9e4d63eaede635e"
    ),
    ("sharded-bank", 11): (
        "2d382ffb9686516d2b7d7fcceb5b5a3dca36ecdaf2bac6840952895f3aabc42a"
    ),
    ("sharded-bank-hot-audits", 7): (
        "6b4fc625082a630da5713451fe4332574eb793d62b2c757d0ae901771880e09f"
    ),
    ("sharded-bank-hot-audits", 11): (
        "d3e66d6627ca0411573fe26e876c767304a3cc0d4b9f4078c7b353c89c1b948b"
    ),
}


def stream_digest(case: str, seed: int) -> str:
    """sha256 over each item's txn id, steps and program fingerprint."""
    name, params = PIN_CASES[case]
    stream = scenario_factory(name, seed=seed, **params).transaction_stream(
        PIN_TXNS
    )
    digest = hashlib.sha256()
    for transaction, fingerprint in materialize(stream):
        steps = [(s.txn, s.op.value, s.entity) for s in transaction.steps]
        digest.update(f"{transaction.txn!r} {steps!r} {fingerprint!r}\n"
                      .encode())
    return digest.hexdigest()


class TestPinnedDigests:
    def test_every_registry_scenario_is_pinned(self):
        assert {name for name, _ in PIN_CASES.values()} == set(
            scenario_names()
        )

    @pytest.mark.parametrize("seed", PIN_SEEDS)
    @pytest.mark.parametrize("case", sorted(PIN_CASES))
    def test_stream_matches_its_pinned_digest(self, case, seed):
        assert stream_digest(case, seed) == STREAM_DIGESTS[case, seed]


class TestShardLayout:
    def test_entities_by_shard_buckets_match_hash(self):
        buckets = entities_by_shard(4, 3)
        assert len(buckets) == 4
        for index, bucket in enumerate(buckets):
            assert len(bucket) == 3
            for name in bucket:
                assert shard_of(name, 4) == index

    def test_layout_is_deterministic(self):
        assert entities_by_shard(5, 2) == entities_by_shard(5, 2)

    def test_scenario_locality_knobs(self):
        """cross_fraction=0 keeps every transfer inside one shard;
        cross_fraction=1 forces every transfer across two shards."""
        for fraction, want_cross in ((0.0, False), (1.0, True)):
            scenario = ShardedBankScenario(
                n_shards=4, accounts_per_shard=3,
                cross_fraction=fraction, hot_fraction=0.0, seed=3,
            )
            for transaction, program in scenario.transaction_stream(40):
                shards = {
                    shard_of(s.entity, 4) for s in transaction.steps
                }
                assert (len(shards) == 2) is want_cross

    def test_single_shard_layout_ignores_cross_fraction(self):
        """With one shard there is nothing to cross into: the stream
        must fall back to shard-local pairs instead of crashing."""
        scenario = ShardedBankScenario(
            n_shards=1, accounts_per_shard=4,
            cross_fraction=0.5, hot_fraction=0.0, seed=3,
        )
        pairs = list(scenario.transaction_stream(30))
        assert len(pairs) == 30
        for transaction, _ in pairs:
            assert {shard_of(s.entity, 1) for s in transaction.steps} == {0}

    def test_hot_traffic_stays_on_hot_shards(self):
        scenario = ShardedBankScenario(
            n_shards=4, accounts_per_shard=3, cross_fraction=0.0,
            hot_fraction=1.0, hot_shards=1, seed=3,
        )
        for transaction, _ in scenario.transaction_stream(40):
            assert {
                shard_of(s.entity, 4) for s in transaction.steps
            } == {0}
