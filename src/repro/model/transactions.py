"""Transactions and transaction systems.

A *transaction* is a finite sequence of steps on entities (paper §2).  A
*transaction system* ``tau = {T_1, ..., T_n}`` is a finite set of
transactions; a schedule of ``tau`` is a sequence in the shuffle of the
transactions' step sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.model.steps import Entity, Op, Step, TxnId, read, write


@dataclass(frozen=True, slots=True)
class Transaction:
    """A finite sequence of read/write steps with a single transaction id.

    All steps must carry the transaction's own id; this is validated at
    construction time.
    """

    txn: TxnId
    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        for step in self.steps:
            if step.txn != self.txn:
                raise ValueError(
                    f"step {step} does not belong to transaction {self.txn}"
                )

    @classmethod
    def build(cls, txn: TxnId, *accesses: tuple[str, Entity]) -> "Transaction":
        """Build a transaction from ('R'|'W', entity) pairs.

        Example::

            Transaction.build("A", ("R", "x"), ("W", "x"), ("W", "y"))
        """
        steps = []
        for kind, entity in accesses:
            if kind.upper() == "R":
                steps.append(read(txn, entity))
            elif kind.upper() == "W":
                steps.append(write(txn, entity))
            else:
                raise ValueError(f"unknown access kind {kind!r}")
        return cls(txn, tuple(steps))

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    def __getitem__(self, index: int) -> Step:
        return self.steps[index]

    @property
    def read_set(self) -> frozenset[Entity]:
        """Entities accessed by a read step (paper §2)."""
        return frozenset(s.entity for s in self.steps if s.is_read)

    @property
    def write_set(self) -> frozenset[Entity]:
        """Entities accessed by a write step (paper §2)."""
        return frozenset(s.entity for s in self.steps if s.is_write)

    @property
    def entities(self) -> frozenset[Entity]:
        """All entities this transaction touches."""
        return self.read_set | self.write_set

    def readless_writes(self) -> list[int]:
        """Indices of writes not preceded by a read of the same entity.

        These are the "readless writes" of [Papadimitriou & Kanellakis
        1984]; DMVSR inserts a read in front of each of them.
        """
        seen_reads: set[Entity] = set()
        indices = []
        for i, step in enumerate(self.steps):
            if step.is_read:
                seen_reads.add(step.entity)
            elif step.entity not in seen_reads:
                indices.append(i)
        return indices

    def __str__(self) -> str:
        return " ".join(str(s) for s in self.steps)


@dataclass(frozen=True)
class TransactionSystem:
    """A finite set of transactions, indexed by transaction id."""

    transactions: tuple[Transaction, ...]
    _by_id: Mapping[TxnId, Transaction] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        by_id = {}
        for t in self.transactions:
            if t.txn in by_id:
                raise ValueError(f"duplicate transaction id {t.txn!r}")
            by_id[t.txn] = t
        object.__setattr__(self, "_by_id", by_id)

    @classmethod
    def of(cls, transactions: Iterable[Transaction]) -> "TransactionSystem":
        """Build a system from an iterable of transactions."""
        return cls(tuple(transactions))

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self.transactions)

    def __len__(self) -> int:
        return len(self.transactions)

    def __contains__(self, txn: TxnId) -> bool:
        return txn in self._by_id

    def __getitem__(self, txn: TxnId) -> Transaction:
        return self._by_id[txn]

    @property
    def txn_ids(self) -> tuple[TxnId, ...]:
        return tuple(t.txn for t in self.transactions)

    @property
    def entities(self) -> frozenset[Entity]:
        """All entities touched by any transaction."""
        out: set[Entity] = set()
        for t in self.transactions:
            out |= t.entities
        return frozenset(out)

    def total_steps(self) -> int:
        """Total number of steps across all transactions."""
        return sum(len(t) for t in self.transactions)
