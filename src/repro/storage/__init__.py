"""Executable storage substrate.

The theory machinery reasons about schedules symbolically; this package
*runs* them: a multiversion in-memory store with version chains, a
single-version store, and an executor that evaluates a full schedule
``(s, V)`` under either Herbrand (uninterpreted) semantics — used to
validate view equivalence semantically — or concrete transaction programs
(bank transfers, inventory movements) — used to show that serializability
is exactly what preserves integrity constraints.
"""

from repro.storage.mvstore import MultiversionStore, Version, VersionStore
from repro.storage.sharded import ShardedMultiversionStore, shard_of
from repro.storage.svstore import SingleVersionStore
from repro.storage.executor import (
    ExecutionResult,
    execute,
    execute_serial,
    herbrand_value,
)
from repro.storage.txn_manager import TransactionManager, ProgramOutcome

__all__ = [
    "MultiversionStore",
    "Version",
    "VersionStore",
    "ShardedMultiversionStore",
    "shard_of",
    "SingleVersionStore",
    "ExecutionResult",
    "execute",
    "execute_serial",
    "herbrand_value",
    "TransactionManager",
    "ProgramOutcome",
]
