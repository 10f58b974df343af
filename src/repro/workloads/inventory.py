"""Inventory workload: order processing with a reconciliation invariant.

Each order transaction takes ``quantity`` units from a warehouse's stock
and adds them to the shipped-total ledger::

    R(stock_w)  W(stock_w)   R(shipped)  W(shipped)

The invariant: ``sum(stock) + shipped == initial stock``.  The ``shipped``
ledger is a single hot entity every order touches, so the workload is a
natural high-contention stress for the schedulers: under 2PL the ledger
serializes everything (or rejects), while multiversion schedulers let
order transactions overlap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.model.enumeration import random_interleaving
from repro.model.schedules import Schedule
from repro.model.steps import Entity, TxnId, read, write
from repro.model.transactions import Transaction, TransactionSystem
from repro.storage.executor import Program

LEDGER: Entity = "shipped"


def order_transaction(txn: TxnId, warehouse: Entity) -> Transaction:
    """``R(stock) W(stock) R(shipped) W(shipped)``."""
    return Transaction(
        txn,
        (
            read(txn, warehouse),
            write(txn, warehouse),
            read(txn, LEDGER),
            write(txn, LEDGER),
        ),
    )


def order_program(quantity: int) -> Program:
    def program(write_index: int, reads: list):
        if write_index == 0:
            return reads[0] - quantity  # stock -= quantity
        return reads[1] + quantity  # shipped += quantity

    return program


@dataclass
class InventoryWorkload:
    """Warehouses plus a stream of order transactions."""

    n_warehouses: int = 4
    n_orders: int = 6
    initial_stock: int = 50
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if self.n_warehouses < 1:
            raise ValueError("n_warehouses must be >= 1")
        self._rng = random.Random(self.seed)

    @property
    def warehouses(self) -> list[Entity]:
        return [f"stock{k}" for k in range(self.n_warehouses)]

    def initial_state(self) -> dict[Entity, int]:
        state: dict[Entity, int] = {w: self.initial_stock for w in self.warehouses}
        state[LEDGER] = 0
        return state

    def system(self) -> tuple[TransactionSystem, dict[TxnId, Program]]:
        warehouses = self.warehouses
        txns = []
        programs: dict[TxnId, Program] = {}
        for k in range(1, self.n_orders + 1):
            warehouse = self._rng.choice(warehouses)
            quantity = self._rng.randint(1, 5)
            txns.append(order_transaction(k, warehouse))
            programs[k] = order_program(quantity)
        return TransactionSystem.of(txns), programs

    def schedule(self, system: TransactionSystem) -> Schedule:
        return random_interleaving(system, self._rng)

    def invariant_holds(self, state: Mapping[Entity, int]) -> bool:
        """Reconciliation: stock moved out equals stock shipped."""
        full = dict(self.initial_state())
        full.update(state)
        total_stock = sum(full[w] for w in self.warehouses)
        return total_stock + full[LEDGER] == self.initial_stock * self.n_warehouses

    def transaction_stream(
        self, n_transactions: int
    ) -> Iterator[tuple[Transaction, Program]]:
        """An open-ended stream of orders for the online engine.

        Every order touches the single ``shipped`` ledger, so this is the
        engine's high-contention stress; reconciliation holds whatever
        subset of the stream commits.
        """
        warehouses = self.warehouses
        for k in range(1, n_transactions + 1):
            warehouse = self._rng.choice(warehouses)
            quantity = self._rng.randint(1, 5)
            yield order_transaction(f"o{k}", warehouse), order_program(quantity)
