"""Schedules: interleavings of transaction steps.

A schedule is a finite sequence of steps such that the steps of each
transaction appear in their transaction order (a "shuffle", paper §2).
Step identity within a schedule is the integer position.

Padding (paper §2): every schedule ``s`` has a *padded* version in which an
initial transaction ``T0`` writes every entity before ``s`` and a final
transaction ``Tf`` reads every entity after ``s``.  ``T0`` models the state
of the database before ``s``; ``Tf`` models the state when ``s`` finishes.
Most deciders in :mod:`repro.classes` work on the padded schedule, which is
the paper's convention ("we shall rarely distinguish a schedule from its
corresponding padded schedule").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from repro.model.steps import Entity, Step, TxnId, read, write
from repro.model.transactions import Transaction, TransactionSystem

#: Reserved id of the initial padding transaction (writes all entities).
T_INIT: TxnId = "T0"

#: Reserved id of the final padding transaction (reads all entities).
T_FINAL: TxnId = "Tf"


@dataclass(frozen=True)
class Schedule:
    """An immutable sequence of steps with cached per-entity indexes.

    The constructor accepts any sequence of :class:`Step`; the per-
    transaction projections are derived (and therefore always consistent:
    any sequence of steps is a schedule of the transaction system formed by
    its projections).
    """

    steps: tuple[Step, ...]
    _writes_by_entity: Mapping[Entity, tuple[int, ...]] = field(
        init=False, repr=False, compare=False, default=None
    )
    _steps_by_txn: Mapping[TxnId, tuple[int, ...]] = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        writes: dict[Entity, list[int]] = {}
        by_txn: dict[TxnId, list[int]] = {}
        for i, step in enumerate(self.steps):
            if step.is_write:
                writes.setdefault(step.entity, []).append(i)
            by_txn.setdefault(step.txn, []).append(i)
        object.__setattr__(
            self, "_writes_by_entity", {e: tuple(v) for e, v in writes.items()}
        )
        object.__setattr__(
            self, "_steps_by_txn", {t: tuple(v) for t, v in by_txn.items()}
        )

    # -- construction ---------------------------------------------------

    @classmethod
    def of(cls, steps: Iterable[Step]) -> "Schedule":
        """Build a schedule from an iterable of steps."""
        return cls(tuple(steps))

    @classmethod
    def serial(cls, transactions: Sequence[Transaction]) -> "Schedule":
        """The serial schedule running ``transactions`` in the given order."""
        steps: list[Step] = []
        for t in transactions:
            steps.extend(t.steps)
        return cls(tuple(steps))

    # -- basic protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self) -> Iterator[Step]:
        return iter(self.steps)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Schedule(self.steps[index])
        return self.steps[index]

    def __add__(self, other: "Schedule") -> "Schedule":
        return Schedule(self.steps + other.steps)

    def __str__(self) -> str:
        return " ".join(str(s) for s in self.steps)

    # -- structure -------------------------------------------------------

    @property
    def txn_ids(self) -> tuple[TxnId, ...]:
        """Transaction ids in order of first appearance."""
        return tuple(self._steps_by_txn.keys())

    @property
    def entities(self) -> frozenset[Entity]:
        """All entities accessed by any step."""
        return frozenset(s.entity for s in self.steps)

    def projection(self, txn: TxnId) -> Transaction:
        """The transaction of ``txn``: its steps in schedule order."""
        indices = self._steps_by_txn.get(txn, ())
        return Transaction(txn, tuple(self.steps[i] for i in indices))

    def step_indices_of(self, txn: TxnId) -> tuple[int, ...]:
        """Positions of ``txn``'s steps."""
        return self._steps_by_txn.get(txn, ())

    def transaction_system(self) -> TransactionSystem:
        """The transaction system this schedule is a shuffle of."""
        return TransactionSystem.of(self.projection(t) for t in self.txn_ids)

    def is_shuffle_of(self, system: TransactionSystem) -> bool:
        """True iff this schedule is an interleaving of exactly ``system``."""
        if set(self.txn_ids) != set(system.txn_ids):
            return False
        return all(self.projection(t.txn) == t for t in system)

    # -- queries used by the deciders -------------------------------------

    def writes_of(self, entity: Entity) -> tuple[int, ...]:
        """Positions of all writes of ``entity``, in schedule order."""
        return self._writes_by_entity.get(entity, ())

    def read_indices(self) -> list[int]:
        """Positions of all read steps, in schedule order."""
        return [i for i, s in enumerate(self.steps) if s.is_read]

    def last_write_before(self, index: int, entity: Entity) -> int | None:
        """Position of the last write of ``entity`` before ``index``.

        Returns ``None`` when no write of ``entity`` precedes ``index``
        (the read then reads from ``T0`` in the padded schedule).
        """
        best = None
        for w in self._writes_by_entity.get(entity, ()):
            if w >= index:
                break
            best = w
        return best

    def writes_before(self, index: int, entity: Entity) -> list[int]:
        """Positions of all writes of ``entity`` strictly before ``index``."""
        return [w for w in self._writes_by_entity.get(entity, ()) if w < index]

    def final_writer(self, entity: Entity) -> TxnId:
        """Transaction holding the final version of ``entity`` (T0 if none)."""
        writes = self._writes_by_entity.get(entity, ())
        if not writes:
            return T_INIT
        return self.steps[writes[-1]].txn

    # -- transformations ---------------------------------------------------

    def prefix(self, length: int) -> "Schedule":
        """The prefix consisting of the first ``length`` steps."""
        return Schedule(self.steps[:length])

    def prefixes(self) -> Iterator["Schedule"]:
        """All prefixes, from empty to the full schedule."""
        for k in range(len(self.steps) + 1):
            yield self.prefix(k)

    def padded(self, entities: Iterable[Entity] | None = None) -> "Schedule":
        """The padded schedule: ``T0`` writes, then ``s``, then ``Tf`` reads.

        ``entities`` defaults to the entities accessed in ``s``; passing a
        superset lets several schedules share one initial state.
        """
        if T_INIT in self._steps_by_txn or T_FINAL in self._steps_by_txn:
            raise ValueError("schedule is already padded")
        ents = sorted(set(entities) if entities is not None else self.entities)
        head = tuple(write(T_INIT, e) for e in ents)
        tail = tuple(read(T_FINAL, e) for e in ents)
        return Schedule(head + self.steps + tail)

    def is_padded(self) -> bool:
        """True iff the schedule contains the padding transactions."""
        return T_INIT in self._steps_by_txn or T_FINAL in self._steps_by_txn

    def unpadded(self) -> "Schedule":
        """Drop all ``T0``/``Tf`` steps."""
        return Schedule(
            tuple(s for s in self.steps if s.txn not in (T_INIT, T_FINAL))
        )

    def core(self) -> "Schedule":
        """The schedule with any explicit padding stripped (``self`` when
        there is none); the deciders use implicit padding."""
        return self.unpadded() if self.is_padded() else self

    def swap(self, index: int) -> "Schedule":
        """Exchange the adjacent steps at ``index`` and ``index + 1``.

        This is the elementary move of Theorem 2; the caller is responsible
        for checking that the two steps do not (multiversion-)conflict and
        belong to different transactions.
        """
        if not 0 <= index < len(self.steps) - 1:
            raise IndexError(f"no adjacent pair at {index}")
        steps = list(self.steps)
        steps[index], steps[index + 1] = steps[index + 1], steps[index]
        return Schedule(tuple(steps))

    def common_prefix_length(self, other: "Schedule") -> int:
        """Length of the longest common prefix with ``other``."""
        n = 0
        for a, b in zip(self.steps, other.steps):
            if a != b:
                break
            n += 1
        return n
