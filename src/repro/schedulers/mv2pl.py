"""Two-version two-phase locking ([Bayer/Heller/Reiser 80] lineage).

Writers create an uncommitted second version while readers continue to
read the committed one — the "parallelism and recovery" scheme the paper's
introduction cites as a motivation for multiversion concurrency control.
Simplifications for the paper's reject-model (no blocking):

* at most one uncommitted version per entity (write-write conflicts
  reject);
* reads take the committed version (never blocked by writers) or the
  transaction's own uncommitted write;
* a transaction *certifies* at its last step: if another unfinished
  transaction has read an entity it wrote, certification — and hence the
  schedule — is rejected.

The accepted set sits strictly between 2PL and MVSR: read-write conflicts
that doom 2PL are absorbed by the second version.
"""

from __future__ import annotations

from repro.model.schedules import Schedule, T_INIT
from repro.model.steps import Entity, Step, TxnId
from repro.schedulers.base import Scheduler


class TwoVersionTwoPL(Scheduler):
    """Two-version 2PL with certify-at-completion."""

    name = "2v2pl"
    journaled = True
    chooses_versions = True
    #: Certification inspects *every* entity a transaction wrote against
    #: unfinished readers — a cross-entity (hence cross-shard) check, so
    #: the conflict state is one shared lock table, not per-shard state.
    #: The parallel runtime runs 2V2PL in one shared conflict domain
    #: (:func:`repro.runtime.shared.plan_domains`).
    shard_partitionable = False

    def __init__(self, steps_per_txn: dict[TxnId, int] | None = None) -> None:
        super().__init__()
        self._lengths = {} if steps_per_txn is None else steps_per_txn
        self._committed: dict[Entity, int | str] = {}
        self._uncommitted: dict[Entity, tuple[TxnId, int]] = {}
        self._read_by: dict[Entity, set[TxnId]] = {}
        self._active: set[TxnId] = set()

    def _reset(self) -> None:
        self._committed = {}
        self._uncommitted = {}
        self._read_by = {}
        self._active = set()

    def _accept(self, step: Step) -> bool:
        txn, entity = step.txn, step.entity
        position = len(self.accepted_steps)
        self._add(self._active, txn)
        holder = self._uncommitted.get(entity)
        if step.is_read:
            if holder is not None and holder[0] == txn:
                self._set(self._assignments, position, holder[1])
            else:
                self._set(
                    self._assignments,
                    position,
                    self._committed.get(entity, T_INIT),
                )
                self._add(self._setdefault(self._read_by, entity, set()), txn)
        else:
            if holder is not None and holder[0] != txn:
                return False  # write-write conflict on the second version
            self._set(self._uncommitted, entity, (txn, position))
        if self._completes(txn):
            return self._certify(txn)
        return True

    def _certify(self, txn: TxnId) -> bool:
        """Commit ``txn``: promote its versions; fail on live readers."""
        written = [
            e for e, (t, _pos) in self._uncommitted.items() if t == txn
        ]
        for entity in written:
            readers = self._read_by.get(entity, set()) - {txn}
            if readers & (self._active - {txn}):
                return False
        for entity in written:
            self._set(
                self._committed, entity, self._pop(self._uncommitted, entity)[1]
            )
        self._discard(self._active, txn)
        for readers in self._read_by.values():
            self._discard(readers, txn)
        return True
