"""Read and write steps.

A *step* is an atomic access to an entity by a transaction (paper, §2):
``R_i(x)`` is a read of entity ``x`` by transaction ``T_i`` and ``W_i(x)``
is a write.  Steps carry no position; a schedule assigns positions.  The
same (txn, op, entity) step may occur several times in a transaction, so
step *identity* inside a schedule is always the schedule index, never the
step value.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Hashable

TxnId = Hashable
Entity = str


class Op(enum.Enum):
    """The two step types of the model."""

    READ = "R"
    WRITE = "W"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True, order=False, slots=True)
class Step:
    """One atomic access: ``R_txn(entity)`` or ``W_txn(entity)``.

    Attributes:
        txn: transaction identifier (int or str; ``T_INIT``/``T_FINAL``
            are reserved for padding).
        op: :class:`Op.READ` or :class:`Op.WRITE`.
        entity: name of the accessed entity.
    """

    txn: TxnId
    op: Op
    entity: Entity

    @property
    def is_read(self) -> bool:
        """True iff this is a read step."""
        return self.op is Op.READ

    @property
    def is_write(self) -> bool:
        """True iff this is a write step."""
        return self.op is Op.WRITE

    def __str__(self) -> str:
        return f"{self.op.value}{self.txn}({self.entity})"

    def __repr__(self) -> str:
        return f"Step({self})"


def read(txn: TxnId, entity: Entity) -> Step:
    """Build the read step ``R_txn(entity)``."""
    return Step(txn, Op.READ, entity)


def write(txn: TxnId, entity: Entity) -> Step:
    """Build the write step ``W_txn(entity)``."""
    return Step(txn, Op.WRITE, entity)


def conflicts_single_version(first: Step, second: Step) -> bool:
    """Single-version conflict (paper §2): same entity, at least one write.

    Steps of the same transaction are never considered to conflict for the
    purposes of the conflict graph — their order is fixed by the
    transaction itself.
    """
    if first.txn == second.txn:
        return False
    if first.entity != second.entity:
        return False
    return first.is_write or second.is_write


def conflicts_multiversion(first: Step, second: Step) -> bool:
    """Multiversion conflict (paper §3): read followed by a write.

    Two steps of a schedule conflict in the multiversion sense iff the
    *first* (in schedule order) is a read and the *second* is a write on
    the same entity.  The relation is deliberately asymmetric: ``W-R`` and
    ``W-W`` pairs can be reordered by choosing versions, while an ``R-W``
    pair cannot — "the multiversion approach can help a read request that
    arrived too late, but it can do nothing about a read request that
    arrived too early."
    """
    if first.txn == second.txn:
        return False
    if first.entity != second.entity:
        return False
    return first.is_read and second.is_write
