"""Batch plans and read bindings for plan-then-execute scheduling.

Faleiro & Abadi's observation: if a batch of transactions is analyzed
*before* execution, version placement can be fixed up front and execution
becomes abort-free — no scheduler tests steps at run time, because every
read already knows exactly which version it will be served.  These are
the structures that carry such a plan:

* :class:`ReadBinding` — one read step resolved to its exact source
  version (a committed base version, an earlier transaction's reserved
  slot, or the reader's own earlier write).
* :class:`PlannedTransaction` — one transaction with its timestamp, its
  bindings in step order, its reserved write slots, and its commit
  dependencies (the uncommitted transactions its reads are bound to).
* :class:`BatchPlan` — the whole batch in timestamp order.  The
  per-transaction ``deps`` are the one statement of what a commit
  depends on.

The structures are deliberately storage-agnostic: ``source``/``slots``
hold whatever version objects the planner's store hands out (the model
layer cannot import the storage layer), and execution machinery lives in
:mod:`repro.planner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.model.schedules import T_INIT
from repro.model.steps import TxnId
from repro.model.transactions import Transaction


@dataclass(eq=False, slots=True)
class ReadBinding:
    """One read step, resolved to its exact source version at plan time.

    ``step_index`` is the read's position within its own transaction;
    ``source`` is the version object the read will be served —
    immutable for base reads, a reserved placeholder otherwise.

    Rebuilt, never mutated: the executor's read-time re-bind past a
    logic-aborted writer puts a new binding in the transaction's cell.
    The class is not ``frozen`` only because a frozen dataclass pays
    ``object.__setattr__`` per field at construction, and planning
    builds one per read.
    Bindings compare by identity, like the plan objects that hold them.
    """

    txn: TxnId
    step_index: int
    #: version object serving this read (opaque to the model layer).
    source: Any = field(repr=False)
    #: transaction that writes the source (T_INIT for a base version).
    source_txn: TxnId = T_INIT

    @property
    def is_base(self) -> bool:
        """True iff the read is served committed pre-batch state."""
        return self.source_txn == T_INIT

    @property
    def is_own(self) -> bool:
        """True iff the read is served the reader's own earlier write."""
        return self.source_txn == self.txn


@dataclass(eq=False, slots=True)
class PlannedTransaction:
    """One transaction's fixed place in a batch plan."""

    transaction: Transaction
    #: batch-total order position; THE serialization order of the batch.
    timestamp: int
    #: write-value program (None = Herbrand semantics downstream).
    program: Callable | None = None
    #: bindings of this transaction's reads, in step order.
    bindings: list[ReadBinding] = field(default_factory=list)
    #: reserved version slots of this transaction's writes, in step order.
    slots: list = field(default_factory=list)
    #: transactions whose reserved slots this one's reads are bound to
    #: (commit dependencies; never includes the transaction itself).
    deps: frozenset[TxnId] = frozenset()

    @property
    def txn(self) -> TxnId:
        return self.transaction.txn

    def bind(self, bindings: list[ReadBinding]) -> None:
        """Set the read bindings and derive ``deps`` from them."""
        self.bindings = bindings
        own = self.transaction.txn
        self.deps = frozenset({
            b.source_txn
            for b in bindings
            if b.source_txn != T_INIT and b.source_txn != own
        })


@dataclass(eq=False)
class BatchPlan:
    """A fully planned batch: every read bound, every write slot reserved.

    ``planned`` is in timestamp order — executing the transactions in
    that order, one at a time, realizes the plan trivially; concurrent
    execution realizes the same reads because the bindings pin them.
    """

    planned: list[PlannedTransaction]
    #: the plan's shape, counted as planning binds it: write slots
    #: reserved; reads served the base version, the reader's own write
    #: or another transaction's slot; the summed sizes of the ``deps``.
    reserved: int = 0
    base_reads: int = 0
    own_reads: int = 0
    dependent_reads: int = 0
    commit_deps: int = 0

    def __iter__(self) -> Iterator[PlannedTransaction]:
        return iter(self.planned)

    def __len__(self) -> int:
        return len(self.planned)
