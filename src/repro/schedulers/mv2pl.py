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

A step runs both checks before it stores anything; an aborted
transaction is retracted in place (:meth:`retract`).
"""

from __future__ import annotations

from repro.model.schedules import Schedule, T_INIT
from repro.model.steps import Entity, Op, Step, TxnId
from repro.schedulers.base import Scheduler

_READ = Op.READ


class TwoVersionTwoPL(Scheduler):
    """Two-version 2PL with certify-at-completion."""

    name = "2v2pl"
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
        uncommitted = self._uncommitted
        holder = uncommitted.get(entity)
        is_read = step.op is _READ
        if not is_read and holder is not None and holder[0] != txn:
            return False  # write-write conflict on the second version
        completes = self._completes(txn)
        if completes:
            # Certification, decided before anything is stored: fail if
            # another unfinished transaction read an entity this one
            # wrote (this step's write included).
            written = [e for e, (t, _pos) in uncommitted.items() if t == txn]
            if not is_read and holder is None:
                written.append(entity)
            for e in written:
                for reader in self._read_by.get(e, ()):
                    if reader != txn and reader in self._active:
                        return False
        # The step stands.
        self._count(txn)
        position = len(self.accepted_steps)
        if is_read:
            if holder is not None and holder[0] == txn:
                source = holder[1]
            else:
                source = self._committed.get(entity, T_INIT)
                self._read_by.setdefault(entity, set()).add(txn)
            self._assignments[position] = source
        else:
            uncommitted[entity] = (txn, position)
        if not completes:
            self._active.add(txn)
            return True
        # Commit: promote its versions, retire it as a reader.
        for e in written:
            self._committed[e] = uncommitted.pop(e)[1]
        self._active.discard(txn)
        for readers in self._read_by.values():
            readers.discard(txn)
        return True

    def retract(self, removed: list[int]) -> None:
        """Drop the doomed transactions' reads, uncommitted versions and
        commits."""
        steps = self.accepted_steps
        committed, uncommitted = self._committed, self._uncommitted
        current = []
        for position in removed:
            step = steps[position]
            txn, entity = step.txn, step.entity
            self._active.discard(txn)
            if step.op is _READ:
                self._read_by.get(entity, set()).discard(txn)
            elif uncommitted.get(entity, (None,))[0] == txn:
                del uncommitted[entity]
            elif committed.get(entity) == position:
                current.append((entity, position))
        self._retract_log(removed)
        # A doomed commit was current: the last surviving write is
        # current again (committed before it: one uncommitted version
        # per entity), or else the initial version.
        for entity, position in current:
            self._fall_back(committed, entity, position)
        return None
