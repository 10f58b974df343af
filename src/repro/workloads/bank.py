"""Banking workload: transfers with a conservation invariant.

Each transfer transaction reads two account balances and writes both,
moving a fixed amount: ``R(a) R(b) W(a) W(b)`` with
``a' = a - amount``, ``b' = b + amount``.  The integrity constraint is
conservation of the total balance — exactly the kind of constraint the
paper's correctness notion protects: serializable schedules preserve it,
non-serializable ones can destroy it (lost updates).
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


def transfer_transaction(
    txn: TxnId, source: Entity, target: Entity
) -> Transaction:
    """``R(source) R(target) W(source) W(target)``."""
    return Transaction(
        txn,
        (
            read(txn, source),
            read(txn, target),
            write(txn, source),
            write(txn, target),
        ),
    )


def audit_transaction(
    txn: TxnId, accounts: list[Entity]
) -> Transaction:
    """A read-only balance audit: ``R(a1) R(a2) ...``.

    Long readers are where multiversion concurrency control shines: the
    audit can be served older versions and slide *before* concurrent
    transfers in the serialization order, where a single-version
    scheduler must reject the interleaving.
    """
    return Transaction(txn, tuple(read(txn, a) for a in accounts))


def transfer_program(amount: int) -> Program:
    """Write values of a transfer: debit the source, credit the target."""

    def program(write_index: int, reads: list):
        if write_index == 0:
            return reads[0] - amount
        return reads[1] + amount

    return program


def bank_programs(
    amounts: Mapping[TxnId, int]
) -> dict[TxnId, Program]:
    """Programs for a set of transfer transactions."""
    return {txn: transfer_program(amount) for txn, amount in amounts.items()}


def total_balance(state: Mapping[Entity, int]) -> int:
    """The conservation invariant: sum of all account balances."""
    return sum(state.values())


@dataclass
class BankWorkload:
    """A reproducible bank of accounts plus a stream of transfers.

    ``hot_fraction`` concentrates transfers on a few hot accounts to raise
    contention — the regime where multiversion schedulers pull ahead of
    locking, which is the paper's motivating observation.
    """

    n_accounts: int = 8
    n_transfers: int = 6
    #: read-only audit transactions mixed into the system.
    n_audits: int = 0
    #: accounts each audit reads.
    audit_width: int = 3
    initial_balance: int = 100
    hot_fraction: float = 0.0
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if self.n_accounts < 2:
            # A transfer pair needs two distinct accounts.
            raise ValueError("n_accounts must be >= 2")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        self._rng = random.Random(self.seed)

    @property
    def accounts(self) -> list[Entity]:
        return [f"acct{k}" for k in range(self.n_accounts)]

    def initial_state(self) -> dict[Entity, int]:
        return {a: self.initial_balance for a in self.accounts}

    def _hot_accounts(self, accounts: list[Entity]) -> list[Entity]:
        return accounts[: max(2, self.n_accounts // 4)]

    def _pick_accounts(
        self, accounts: list[Entity], hot: list[Entity]
    ) -> tuple[Entity, Entity]:
        """A transfer pair; ``accounts`` and ``hot`` are built once per
        call of :meth:`system` or :meth:`transaction_stream`."""
        if self.hot_fraction > 0 and self._rng.random() < self.hot_fraction:
            pair = self._rng.sample(hot, 2)
        else:
            pair = self._rng.sample(accounts, 2)
        return pair[0], pair[1]

    def system(self) -> tuple[TransactionSystem, dict[TxnId, int]]:
        """Transfers (with amounts) plus read-only audits.

        The returned amounts map only covers transfer transactions;
        audits have no writes, so they need no program.
        """
        accounts = self.accounts
        hot = self._hot_accounts(accounts)
        txns = []
        amounts: dict[TxnId, int] = {}
        for k in range(1, self.n_transfers + 1):
            source, target = self._pick_accounts(accounts, hot)
            txns.append(transfer_transaction(k, source, target))
            amounts[k] = self._rng.randint(1, 20)
        for k in range(1, self.n_audits + 1):
            width = min(self.audit_width, self.n_accounts)
            audited = self._rng.sample(accounts, width)
            txns.append(audit_transaction(f"audit{k}", audited))
        return TransactionSystem.of(txns), amounts

    def schedule(
        self, system: TransactionSystem | None = None
    ) -> Schedule:
        """One random interleaving of the transfers."""
        if system is None:
            system, _ = self.system()
        return random_interleaving(system, self._rng)

    def invariant_holds(self, state: Mapping[Entity, int]) -> bool:
        """Conservation: the total balance never changes."""
        expected = self.initial_balance * self.n_accounts
        full = dict(self.initial_state())
        full.update(state)
        return total_balance(full) == expected

    def transaction_stream(
        self, n_transactions: int, audit_every: int = 0
    ) -> Iterator[tuple[Transaction, Program | None]]:
        """An open-ended stream of transfers for the online engine.

        Yields ``(transaction, program)`` pairs with stream-unique ids;
        every ``audit_every``-th item is a read-only audit (program
        ``None``).  Conservation holds whatever subset of the stream
        commits, so the invariant check stays valid under abort/retry.
        """
        accounts = self.accounts
        hot = self._hot_accounts(accounts)
        audits = 0
        for k in range(1, n_transactions + 1):
            if audit_every and k % audit_every == 0:
                audits += 1
                width = min(self.audit_width, self.n_accounts)
                audited = self._rng.sample(accounts, width)
                yield audit_transaction(f"a{audits}", audited), None
                continue
            source, target = self._pick_accounts(accounts, hot)
            amount = self._rng.randint(1, 20)
            yield (
                transfer_transaction(f"t{k}", source, target),
                transfer_program(amount),
            )
