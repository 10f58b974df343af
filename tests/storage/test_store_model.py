"""Model-based equivalence: the bisecting store against list scans.

:class:`NaiveStore` below is the reference — deliberately the loops the
store used before its chains were bisected: walk the chain by identity
to remove, scan from the tail for ``latest_before``, walk the prefix to
prune, recount for every aggregate.  Random operation sequences
(Hypothesis) run against it and against the real store — one plain
store, and the shard runtime's container driven the way its dispatcher
drives it (each operation on the shard :func:`shard_of` names, every
aggregate from the container's ``final_state`` and ``snapshot_stats``);
after every step every chain, every counter and every lookup must
agree.  The reference stays in this file on purpose: it shares no code
with ``repro.storage``.
"""

import itertools
from dataclasses import dataclass
from typing import Any

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.model.schedules import T_INIT  # noqa: E402
from repro.storage.mvstore import MultiversionStore  # noqa: E402
from repro.storage.sharded import (  # noqa: E402
    ShardedMultiversionStore,
    shard_of,
)

ENTITIES = ("a", "b", "c", "d")
WRITERS = ("T1", "T2", "T3")
INITIAL = {"a": 10, "b": 20}  # c and d take the store's default initial


class Routed:
    """The shard runtime's container behind the store's call set: an
    entity's operation runs on ``shards[shard_of(entity, n)]``, the
    counters are the sums of ``snapshot_stats`` and the final state is
    the container's own merge."""

    #: the operations whose first argument is an entity.
    BY_ENTITY = (
        "install", "reserve", "prune_before", "latest", "latest_before",
        "at_position", "versions",
    )
    #: the operations on one version, routed by its entity.
    BY_VERSION = ("fill", "poison", "remove")

    def __init__(self, container: ShardedMultiversionStore):
        self.container = container

    def owner(self, entity) -> MultiversionStore:
        return self.container.shards[
            shard_of(entity, self.container.n_shards)
        ]

    def __getattr__(self, op):
        if op in self.BY_ENTITY:
            return lambda entity, *args: getattr(self.owner(entity), op)(
                entity, *args
            )
        if op in self.BY_VERSION:
            return lambda version, *args: getattr(
                self.owner(version.entity), op
            )(version, *args)
        raise AttributeError(op)

    def entities(self):
        return [e for shard in self.container.shards for e in shard.entities()]

    def stat(self, column) -> int:
        return sum(row[column] for row in self.container.snapshot_stats())

    def version_count(self) -> int:
        return self.stat("versions")

    def placeholder_count(self) -> int:
        return self.stat("placeholders")

    def final_state(self):
        assert self.stat("entities") == len(self.entities())
        return self.container.final_state()


STORES = {
    "plain": lambda: MultiversionStore(dict(INITIAL)),
    "sharded": lambda: Routed(ShardedMultiversionStore(3, dict(INITIAL))),
}


@dataclass(eq=False)
class Record:
    """One reference version; ``real`` is its twin in the real store."""

    entity: str
    writer: Any
    value: Any
    position: int | None
    state: str  # installed | pending | filled | poisoned
    real: Any = None

    @property
    def key(self) -> int:
        return -1 if self.position is None else self.position

    @property
    def materialized(self) -> bool:
        return self.state in ("installed", "filled")


class NaiveStore:
    """List-scan reference store (no index, no bisect, no counters)."""

    def __init__(self, initial):
        self.initial = dict(initial)
        self.chains: dict[str, list[Record]] = {}

    def chain(self, entity):
        if entity not in self.chains:
            value = self.initial.get(entity, ("init", entity))
            self.chains[entity] = [
                Record(entity, T_INIT, value, None, "installed")
            ]
        return self.chains[entity]

    def append(self, entity, writer, value, position, state):
        chain = self.chain(entity)
        if position <= chain[-1].key:
            raise ValueError("out-of-order install")
        chain.append(Record(entity, writer, value, position, state))
        return chain[-1]

    def fill(self, record, value):
        if record.state != "pending":
            raise ValueError("fill")
        record.value, record.state = value, "filled"

    def poison(self, record):
        if record.state in ("installed", "filled"):
            raise ValueError("poison")
        record.state = "poisoned"

    def remove(self, record):
        if record.position is None:
            raise ValueError("initial")
        chain = self.chains.get(record.entity, [])
        for i, candidate in enumerate(chain):
            if candidate is record:
                del chain[i]
                return
        raise KeyError(record)

    def prune_before(self, entity, watermark):
        chain = self.chains.get(entity)
        if not chain:
            return 0
        cut = 0
        for i, record in enumerate(chain):
            if record.key < watermark:
                cut = i
            else:
                break
        del chain[:cut]
        return cut

    def latest(self, entity):
        return self.chain(entity)[-1]

    def latest_before(self, entity, position):
        for record in reversed(self.chain(entity)):
            if record.key < position:
                return record
        raise KeyError(position)

    def at_position(self, entity, position):
        for record in self.chain(entity):
            if record.position == position:
                return record
        raise KeyError(position)

    def version_count(self):
        return sum(
            r.materialized for chain in self.chains.values() for r in chain
        )

    def placeholder_count(self):
        return sum(
            not r.materialized for chain in self.chains.values() for r in chain
        )

    def final_state(self):
        state = {}
        for entity, chain in self.chains.items():
            for record in reversed(chain):
                if record.materialized:
                    state[entity] = record.value
                    break
        return state


class Pair:
    """The real store and the reference, driven in lockstep."""

    def __init__(self, real):
        self.real = real
        self.naive = NaiveStore(INITIAL)
        #: every record ever created, removed and pruned ones included —
        #: a stale handle is a legal input to ``remove`` (same KeyError).
        self.records: list[Record] = []
        self.positions = itertools.count()

    def live(self) -> list[Record]:
        """Records still in a chain: the legal inputs of a transition."""
        return [
            record for record in self.records
            if any(record is r for r in self.naive.chains[record.entity])
        ]

    def both(self, on_real, on_naive):
        """Run one operation on each side; same result or same error."""
        outcomes = []
        for call in (on_real, on_naive):
            try:
                outcomes.append(("ok", call()))
            except (KeyError, ValueError) as error:
                outcomes.append(("raised", type(error)))
        return outcomes

    def write(self, op, entity, writer, value, position):
        """``install`` or ``reserve`` at ``position``, on both sides."""
        payload = (value,) if op == "install" else ()
        state = "installed" if op == "install" else "pending"
        real, record = self.both(
            lambda: getattr(self.real, op)(
                entity, writer, *payload, position
            ),
            lambda: self.naive.append(entity, writer, value, position, state),
        )
        assert real[0] == record[0], (op, entity, position, real, record)
        if real[0] == "ok":
            record[1].real = real[1]
            self.records.append(record[1])
        else:
            assert real == record

    def transition(self, op, record, value):
        """``fill``/``poison``/``remove`` of one version."""
        payload = (value,) if op == "fill" else ()
        real, naive = self.both(
            lambda: getattr(self.real, op)(record.real, *payload),
            lambda: getattr(self.naive, op)(record, *payload),
        )
        assert real == naive, (op, record, real, naive)

    def lookup(self, op, *args):
        """A read (same version) or ``prune_before`` (same count)."""
        real, naive = self.both(
            lambda: getattr(self.real, op)(*args),
            lambda: getattr(self.naive, op)(*args),
        )
        assert real[0] == naive[0], (op, args, real, naive)
        if real[0] == "raised" or op == "prune_before":
            assert real == naive, (op, args, real, naive)
        else:
            self.same(real[1], naive[1])

    def same(self, version, record):
        if record.real is None:  # the initial version: first sighting
            record.real = version
        assert version is record.real
        assert (version.writer, version.position) == (
            record.writer, record.position
        )
        assert version.materialized == record.materialized
        if record.materialized:
            assert version.value == record.value

    def check(self):
        assert sorted(self.real.entities()) == sorted(self.naive.chains)
        for entity, chain in self.naive.chains.items():
            versions = self.real.versions(entity)
            assert len(versions) == len(chain), entity
            for version, record in zip(versions, chain):
                self.same(version, record)
            # every lookup, at and between the chain's positions
            self.lookup("latest", entity)
            for record in chain:
                self.lookup("at_position", entity, record.position)
                self.lookup("latest_before", entity, record.key)
                self.lookup("latest_before", entity, record.key + 1)
        assert self.real.version_count() == self.naive.version_count()
        assert (
            self.real.placeholder_count() == self.naive.placeholder_count()
        )
        assert self.real.final_state() == self.naive.final_state()


OPS = (
    "install", "install", "reserve", "reserve", "stale-write", "fill",
    "poison", "remove", "prune_before", "latest_before",
    "at_position",
)
steps = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.integers(0, 1 << 16),
        st.integers(0, 1 << 16),
    ),
    max_size=50,
)


def run(pair: Pair, script) -> None:
    for op, x, y in script:
        entity = ENTITIES[x % len(ENTITIES)]
        writer = WRITERS[y % len(WRITERS)]
        if op in ("install", "reserve"):
            for _ in range(y % 3):  # gaps: positions between a chain's keys
                next(pair.positions)
            pair.write(op, entity, writer, ("v", y), next(pair.positions))
        elif op == "stale-write":
            # at or below the tail: both sides must refuse, and keep state
            tail = pair.naive.chain(entity)[-1].key
            pair.write(
                ("install", "reserve")[y % 2], entity, writer, ("v", y),
                tail - y % 3,
            )
        elif op in ("fill", "poison", "remove"):
            records = pair.records if op == "remove" else pair.live()
            record = records[x % len(records)] if records else None
            # Never empty a chain: what a prune leaves behind is a
            # committed base version, and only uncommitted writes abort.
            if record and pair.naive.chains[record.entity] != [record]:
                pair.transition(op, record, ("filled", y))
        else:  # a position from two below the initial to beyond every tail
            pair.lookup(op, entity, y % (next(pair.positions) + 4) - 2)
        pair.check()


@pytest.mark.parametrize("kind", sorted(STORES))
@settings(max_examples=120, deadline=None)
@given(script=steps)
# at_position("a", -1): the initial version's order key is -1, so a bisect
# that compared keys instead of ``version.position`` would serve T0 here.
@example(script=[("at_position", 0, 1)])
def test_random_operations_agree_with_the_list_scan_model(kind, script):
    run(Pair(STORES[kind]()), script)


@pytest.mark.parametrize("kind", sorted(STORES))
class TestPruneEdges:
    """The bisect's boundary cases, each against the prefix walk."""

    def chain(self, kind, positions=(3, 5, 9)):
        pair = Pair(STORES[kind]())
        for position in positions:
            pair.write("install", "a", "T1", position, position)
        return pair

    @pytest.mark.parametrize("watermark", [-7, -1, 0, 3, 4, 5, 9, 10, 99])
    def test_watermark_below_on_between_and_above_the_keys(
        self, kind, watermark
    ):
        pair = self.chain(kind)
        pair.lookup("prune_before", "a", watermark)
        pair.check()

    def test_chain_of_only_the_initial_version(self, kind):
        pair = self.chain(kind, positions=())
        pair.lookup("latest", "a")  # materialise the chain on both sides
        for watermark in (-1, 0, 5):
            pair.lookup("prune_before", "a", watermark)
            pair.check()
        assert pair.real.versions("a")[0].is_initial

    def test_prune_twice_and_below_a_pruned_prefix(self, kind):
        pair = self.chain(kind)
        pair.lookup("prune_before", "a", 6)  # initial and 3 go, 5 stays
        assert [v.position for v in pair.real.versions("a")] == [5, 9]
        with pytest.raises(KeyError):  # the initial version went with it
            pair.real.at_position("a", None)
        pair.lookup("prune_before", "a", 2)  # below the first key now
        pair.lookup("prune_before", "a", 6)  # same watermark: nothing left
        pair.lookup("latest_before", "a", 5)  # nothing below: KeyError x2
        pair.check()

    def test_untouched_entity_is_left_untouched(self, kind):
        pair = self.chain(kind)
        pair.lookup("prune_before", "d", 4)
        pair.check()  # entities() agree: pruning created no chain
