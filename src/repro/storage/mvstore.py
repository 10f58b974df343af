"""In-memory multiversion store with version chains.

Each entity holds an ordered chain of versions ("each write step adds a
value at the end of the set of values of the entity", paper §2); reads are
served *a chosen* version, not necessarily the latest.  The store is the
execution substrate under the multiversion schedulers and examples.

A version is addressed by the *position* of the write that made it, and
the chain's position list is the store's only index.  Invariant: a
chain's positions are strictly increasing (writes append, so callers
install in position order; an out-of-order ``install``/``reserve`` is
rejected).  Every search — ``at_position``, ``remove`` (transaction
abort), ``latest_before`` and ``prune_before`` (garbage collection) —
bisects that list instead of walking the chain.  The drivers
(:mod:`repro.engine`, :mod:`repro.planner`) hold the ``Version`` objects
they were served and never look one up; ``at_position`` serves the
paper-level schedule executor (:mod:`repro.storage.executor`).
:class:`VersionStore` names the part of this interface those drivers
call.

Placeholder versions (after Larson et al.'s uncommitted-version records)
support plan-then-execute execution (:mod:`repro.planner`): a chain slot
is *reserved* at its final position before the writing transaction runs,
then *filled* with the computed value at commit, or *poisoned* if the
writer aborts.  A placeholder occupies its chain position from the moment
of reservation — later reads can be bound to it exactly — but it does not
count as a stored version until filled: ``version_count`` and every
aggregate built on it report only materialized versions.
"""

# repro: deterministic-contract — equal seeds must yield byte-identical output

from __future__ import annotations

import enum
import threading
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Iterator, Protocol, runtime_checkable

from repro.model.schedules import T_INIT
from repro.model.steps import Entity, TxnId


@dataclass(frozen=True)
class Version:
    """One version in an entity's chain."""

    entity: Entity
    writer: TxnId
    value: Any
    #: schedule position of the write that installed it (None = initial).
    position: int | None

    @property
    def is_initial(self) -> bool:
        return self.position is None

    @property
    def is_placeholder(self) -> bool:
        return False

    @property
    def materialized(self) -> bool:
        """True iff this version holds a real value (always, unless it is
        a placeholder that has not been filled)."""
        return True


class PlaceholderState(enum.Enum):
    """Lifecycle of a reserved version slot (PENDING is the only state
    from which both forward transitions are legal; FILLED and POISONED
    are terminal)."""

    PENDING = "pending"
    FILLED = "filled"
    POISONED = "poisoned"


#: value of a placeholder that has not been filled yet.
UNWRITTEN = object()


class PlaceholderVersion(Version):
    """A reserved chain slot whose payload arrives at execution time.

    Chain metadata (entity, writer, position) is fixed at reservation,
    exactly like a normal version — that is what lets a batch planner
    bind reads to it before the writer has run.  Only the payload cell
    transitions: PENDING -> FILLED (value published) or PENDING ->
    POISONED (writer aborted).  Waiters block on an event that both
    transitions set, so a blocked reader always wakes to a decided fate.

    Equality and hashing are by identity, not by field value — the
    ``value`` field mutates on fill, and the engine/planner compare
    versions by identity anyway.
    """

    #: wake-up event; a slot gets its own from its first blocked
    #: :meth:`wait` — until then its transitions have nobody to wake.
    _event: threading.Event | None = None

    def __init__(self, entity: Entity, writer: TxnId, position: int) -> None:
        super().__init__(entity, writer, UNWRITTEN, position)
        object.__setattr__(self, "state", PlaceholderState.PENDING)

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @property
    def is_placeholder(self) -> bool:
        return True

    @property
    def materialized(self) -> bool:
        return self.state is PlaceholderState.FILLED

    @property
    def decided(self) -> bool:
        return self.state is not PlaceholderState.PENDING

    def wait(self, timeout: float | None = None) -> bool:
        """Block until filled or poisoned; True iff decided in time.

        A waiter that finds the slot PENDING publishes the wake-up event
        (``setdefault`` is atomic: racing waiters share one), then checks
        the state *again*.  A transition writes the state before it looks
        for the event, so it either finds and sets the event or decided
        before the re-check — no wake-up is lost.
        """
        if self.decided:
            return True
        event = vars(self).setdefault("_event", threading.Event())
        return self.decided or event.wait(timeout)

    # -- store-internal transitions (go through MultiversionStore) --------

    def _fill(self, value: Any) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "state", PlaceholderState.FILLED)
        if self._event is not None:
            self._event.set()

    def _poison(self) -> None:
        object.__setattr__(self, "state", PlaceholderState.POISONED)
        if self._event is not None:
            self._event.set()


def _order_key(position: int | None) -> int:
    """Chain-order key of a position; the initial version sorts first."""
    return -1 if position is None else position


@runtime_checkable
class VersionStore(Protocol):
    """What the drivers call on a store — nothing more.

    :class:`repro.engine.OnlineEngine`, :class:`repro.engine.WatermarkGC`
    and the planner (:mod:`repro.planner`) are written against exactly
    these members (``tests/storage/test_protocol.py`` walks their source
    to keep it so; ``docs/execution-modes.md`` has the member → caller
    table).  :class:`MultiversionStore` and
    :class:`repro.storage.sharded.ShardedMultiversionStore` implement it;
    semantics are documented on the former.
    """

    def install(
        self, entity: Entity, writer: TxnId, value: Any, position: int
    ) -> Version: ...

    def remove(self, version: Version) -> None: ...

    def reserve(
        self, entity: Entity, writer: TxnId, position: int
    ) -> PlaceholderVersion: ...

    def fill(self, version: PlaceholderVersion, value: Any) -> None: ...

    def poison(self, version: PlaceholderVersion) -> None: ...

    def prune_before(self, entity: Entity, watermark: int) -> int: ...

    def latest(self, entity: Entity) -> Version: ...

    def latest_before(self, entity: Entity, position: int) -> Version: ...

    def entities(self) -> Iterator[Entity]: ...

    def version_count(self) -> int: ...

    def placeholder_count(self) -> int: ...

    def final_state(self) -> dict[Entity, Any]: ...


class MultiversionStore:
    """Entity -> ordered version chain; reads address any live version."""

    def __init__(self, initial: dict[Entity, Any] | None = None) -> None:
        self._chains: dict[Entity, list[Version]] = {}
        #: per-entity ``_order_key`` of each chain member: parallel to the
        #: chain, strictly increasing — what the chain searches bisect.
        self._keys: dict[Entity, list[int]] = {}
        self._initial_values = dict(initial or {})
        self._n_versions = 0
        #: reserved-but-unmaterialized slots (PENDING or POISONED).
        self._n_unmaterialized = 0

    def _chain(self, entity: Entity) -> list[Version]:
        if entity not in self._chains:
            value = self._initial_values.get(entity, ("init", entity))
            self._chains[entity] = []
            self._keys[entity] = []
            self._append(Version(entity, T_INIT, value, None))
        return self._chains[entity]

    def _append(self, version: Version) -> None:
        entity = version.entity
        keys = self._keys[entity]
        key = _order_key(version.position)
        if keys and key <= keys[-1]:
            raise ValueError(
                f"out-of-order install of {entity!r} at position "
                f"{version.position}: its chain already ends at {keys[-1]}"
            )
        keys.append(key)
        self._chains[entity].append(version)
        self._n_versions += 1

    def _dropped(self, version: Version) -> None:
        self._n_versions -= 1
        if not version.materialized:
            self._n_unmaterialized -= 1

    # -- writes ----------------------------------------------------------

    def install(
        self, entity: Entity, writer: TxnId, value: Any, position: int
    ) -> Version:
        """Append a new version to the entity's chain."""
        self._chain(entity)
        version = Version(entity, writer, value, position)
        self._append(version)
        return version

    # -- placeholder lifecycle (plan-then-execute) ------------------------

    def reserve(
        self, entity: Entity, writer: TxnId, position: int
    ) -> PlaceholderVersion:
        """Reserve a chain slot for a write that has not executed yet.

        The slot takes its final chain position immediately, so a planner
        can bind later reads to it exactly; it stays out of
        :meth:`version_count` until filled.
        """
        self._chain(entity)
        version = PlaceholderVersion(entity, writer, position)
        self._append(version)
        self._n_unmaterialized += 1
        return version

    def fill(self, version: PlaceholderVersion, value: Any) -> None:
        """Publish the computed value of a reserved slot (commit point).

        Wakes every reader blocked on the placeholder.  Filling a
        non-pending slot is a caller bug: values publish exactly once and
        a poisoned slot's writer is gone.
        """
        if not version.is_placeholder:
            raise ValueError(f"fill on non-placeholder version {version!r}")
        if version.state is not PlaceholderState.PENDING:
            raise ValueError(
                f"fill on {version.state.value} placeholder of "
                f"{version.writer!r}"
            )
        version._fill(value)
        self._n_unmaterialized -= 1

    def poison(self, version: PlaceholderVersion) -> None:
        """Mark a reserved slot dead (writer aborted); idempotent.

        Wakes blocked readers, which observe the poisoned state and
        re-bind past the slot.  Poisoning a *filled* slot is a caller bug
        — published values are immutable, so an abort must happen before
        publish.
        """
        if not version.is_placeholder:
            raise ValueError(f"poison on non-placeholder version {version!r}")
        if version.state is PlaceholderState.POISONED:
            return
        if version.state is PlaceholderState.FILLED:
            raise ValueError(
                f"poison on filled placeholder of {version.writer!r}"
            )
        version._poison()

    def remove(self, version: Version) -> None:
        """Remove one installed version (transaction abort path).

        The version must be present; removing the initial version is a bug
        in the caller (an abort only retracts its own writes).
        """
        if version.is_initial:
            raise ValueError("cannot remove the initial version")
        chain = self._chains.get(version.entity, ())
        keys = self._keys.get(version.entity, ())
        i = bisect_left(keys, version.position)
        if i == len(chain) or chain[i] is not version:
            raise KeyError(f"version {version!r} is not installed")
        del chain[i], keys[i]
        self._dropped(version)

    def prune_before(self, entity: Entity, watermark: int) -> int:
        """Drop the chain prefix older than ``watermark`` (GC path).

        Removes every version whose position is below ``watermark``
        *except the newest such version* — that survivor is the base
        version a reader positioned at the watermark would be served, so
        pruning never loses an addressable version.  Returns the number of
        versions removed.
        """
        keys = self._keys.get(entity, ())
        cut = bisect_left(keys, watermark) - 1
        if cut <= 0:
            return 0
        chain = self._chains[entity]
        removed = chain[:cut]
        del chain[:cut], keys[:cut]
        for version in removed:
            self._dropped(version)
        return cut

    # -- reads ------------------------------------------------------------

    def latest(self, entity: Entity) -> Version:
        """The newest version (single-version semantics)."""
        return self._chain(entity)[-1]

    def at_position(self, entity: Entity, position: int | None) -> Version:
        """The version installed by the write at ``position``.

        ``None`` addresses the initial (``T0``) version.  Raises
        ``KeyError`` when no such version exists (never installed, or
        pruned) — serving some other version instead is a bug in the
        caller.
        """
        chain = self._chain(entity)
        i = bisect_left(self._keys[entity], _order_key(position))
        # Compare positions, not keys: the initial version's key is -1.
        if i == len(chain) or chain[i].position != position:
            raise KeyError(f"no version of {entity!r} at position {position}")
        return chain[i]

    def latest_before(self, entity: Entity, position: int) -> Version:
        """The newest version strictly below ``position`` in chain order.

        The re-binding primitive of the pipelined planner: when a reserved
        slot a later plan bound to is removed (its writer aborted), the
        affected reads re-bind to the newest survivor below the plan's
        first install position — the version the plan would have bound had
        the aborted slot never been reserved.  The initial version always
        qualifies, so the lookup cannot miss on an unpruned chain.
        """
        chain = self._chain(entity)
        i = bisect_left(self._keys[entity], position)
        if not i:  # only below a pruned prefix: the initial sorts first
            raise KeyError(
                f"no version of {entity!r} before position {position}"
            )
        return chain[i - 1]

    def versions(self, entity: Entity) -> list[Version]:
        """The full chain, oldest first."""
        return list(self._chain(entity))

    def entities(self) -> Iterator[Entity]:
        return iter(self._chains.keys())

    def version_count(self) -> int:
        """Number of materialized versions (including initials).

        Reserved-but-unfilled placeholders are excluded: a slot with no
        value is capacity planning, not stored data, and counting it
        would make GC/retention statistics depend on how far a batch's
        execution happens to have progressed.
        """
        return self._n_versions - self._n_unmaterialized

    def placeholder_count(self) -> int:
        """Reserved slots not yet filled (PENDING or POISONED)."""
        return self._n_unmaterialized

    def final_state(self) -> dict[Entity, Any]:
        """Latest materialized value of every touched entity.

        Skips unfilled placeholders at chain tails — mid-batch, the
        newest *value* of an entity is the newest filled version.
        """
        state: dict[Entity, Any] = {}
        for entity, chain in self._chains.items():
            for version in reversed(chain):
                if version.materialized:
                    state[entity] = version.value
                    break
        return state
