"""The per-step and per-transaction records carry slots, not a dict.

A run holds one :class:`Step` per access, one :class:`Transaction` and
one :class:`PlannedTransaction` per transaction and one :class:`Version`
per write, so these records are ``slots=True`` dataclasses.  Slots take
no ad-hoc attribute and no weak reference; everything else — the field
lists, equality, hashing, repr, ``dataclasses.replace``, ``copy`` and
``pickle`` — behaves as it did with a dict, and a placeholder still
compares by identity and still fills and poisons.
"""

import copy
import dataclasses
import pickle
import weakref

import pytest

from repro.model.batching import PlannedTransaction
from repro.model.steps import Op, Step, read, write
from repro.model.transactions import Transaction
from repro.storage.mvstore import (
    UNWRITTEN,
    MultiversionStore,
    PlaceholderState,
    PlaceholderVersion,
    Version,
)

PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


def transfer(txn="t1"):
    return Transaction.build(txn, ("R", "x"), ("R", "y"), ("W", "x"),
                             ("W", "y"))


def records():
    return {
        "step": read("t1", "x"),
        "transaction": transfer(),
        "version": Version("x", "t1", 5, 3),
        "placeholder": PlaceholderVersion("x", "t1", 3),
        "planned": PlannedTransaction(transfer(), 0),
    }


class TestNoDict:
    @pytest.mark.parametrize("kind", sorted(records()))
    def test_no_instance_dict(self, kind):
        record = records()[kind]
        assert not hasattr(record, "__dict__")

    @pytest.mark.parametrize("kind", sorted(records()))
    def test_no_ad_hoc_attribute(self, kind):
        record = records()[kind]
        # Frozen records refuse through their ``__setattr__`` (a
        # TypeError on Python 3.11, whose generated method names the
        # class the slots rebuilt), PlannedTransaction through its slots.
        with pytest.raises((AttributeError, TypeError)):
            record.note = 1
        with pytest.raises(AttributeError):
            object.__setattr__(record, "note", 1)

    @pytest.mark.parametrize("kind", sorted(records()))
    def test_no_weak_reference(self, kind):
        with pytest.raises(TypeError):
            weakref.ref(records()[kind])

    def test_field_lists(self):
        def names(cls):
            return [f.name for f in dataclasses.fields(cls)]

        assert names(Step) == ["txn", "op", "entity"]
        assert names(Transaction) == ["txn", "steps"]
        assert names(Version) == ["entity", "writer", "value", "position"]
        assert names(PlaceholderVersion) == names(Version)
        assert names(PlannedTransaction) == [
            "transaction", "timestamp", "program", "bindings", "slots",
            "deps",
        ]


class TestStep:
    def test_equality_and_hash_by_value(self):
        assert read("t1", "x") == Step("t1", Op.READ, "x")
        assert hash(read("t1", "x")) == hash(Step("t1", Op.READ, "x"))
        assert read("t1", "x") != write("t1", "x")
        assert len({read("t1", "x"), read("t1", "x"), read("t2", "x")}) == 2

    def test_frozen_and_unordered(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            read("t1", "x").entity = "y"
        with pytest.raises(TypeError):
            read("t1", "x") < read("t1", "y")

    def test_repr_and_str(self):
        assert repr(read("t1", "x")) == "Step(Rt1(x))"
        assert str(write(2, "y")) == "W2(y)"

    def test_replace(self):
        step = dataclasses.replace(read("t1", "x"), entity="y")
        assert step == read("t1", "y")

    def test_copy_and_pickle_round_trip(self):
        step = write("t1", "x")
        clones = [copy.copy(step), copy.deepcopy(step)] + [
            pickle.loads(pickle.dumps(step, protocol))
            for protocol in PROTOCOLS
        ]
        for clone in clones:
            assert clone == step and hash(clone) == hash(step)
            assert clone.op is Op.WRITE


class TestTransaction:
    def test_equality_and_hash_by_value(self):
        assert transfer() == transfer()
        assert hash(transfer()) == hash(transfer())
        assert transfer("t1") != transfer("t2")

    def test_repr(self):
        assert repr(Transaction("t1", (read("t1", "x"),))) == (
            "Transaction(txn='t1', steps=(Step(Rt1(x)),))"
        )

    def test_replace_revalidates(self):
        txn = transfer()
        shorter = dataclasses.replace(txn, steps=txn.steps[:2])
        assert shorter.read_set == {"x", "y"} and not shorter.write_set
        with pytest.raises(ValueError):
            dataclasses.replace(txn, steps=(read("t2", "x"),))

    def test_copy_and_pickle_round_trip(self):
        txn = transfer()
        clones = [copy.copy(txn), copy.deepcopy(txn)] + [
            pickle.loads(pickle.dumps(txn, protocol))
            for protocol in PROTOCOLS
        ]
        for clone in clones:
            assert clone == txn and hash(clone) == hash(txn)
            assert clone.steps == txn.steps


class TestVersion:
    def test_equality_by_value(self):
        assert Version("x", "t1", 5, 3) == Version("x", "t1", 5, 3)
        assert hash(Version("x", "t1", 5, 3)) == hash(
            Version("x", "t1", 5, 3)
        )
        assert Version("x", "t1", 5, None).is_initial

    def test_pickle_round_trip(self):
        version = Version("x", "t1", 5, 3)
        for protocol in PROTOCOLS:
            assert pickle.loads(pickle.dumps(version, protocol)) == version


class TestPlaceholder:
    def test_identity_equality(self):
        first = PlaceholderVersion("x", "t1", 3)
        second = PlaceholderVersion("x", "t1", 3)
        assert first == first and first != second
        assert hash(first) == object.__hash__(first)
        assert len({first, second}) == 2

    def test_fills_and_poisons(self):
        store = MultiversionStore({"x": 1})
        filled = store.reserve("x", "A", 0)
        poisoned = store.reserve("x", "B", 1)
        assert filled.state is PlaceholderState.PENDING
        assert filled.value is UNWRITTEN
        store.fill(filled, 42)
        store.poison(poisoned)
        assert filled.state is PlaceholderState.FILLED
        assert filled.value == 42 and filled.materialized
        assert poisoned.state is PlaceholderState.POISONED
        assert poisoned.decided and not poisoned.materialized

    @pytest.mark.parametrize("fill", [False, True])
    def test_copy_and_pickle_keep_the_state(self, fill):
        slot = PlaceholderVersion("x", "t1", 3)
        if fill:
            MultiversionStore().fill(slot, 7)
        clones = [copy.copy(slot), copy.deepcopy(slot)] + [
            pickle.loads(pickle.dumps(slot, protocol))
            for protocol in PROTOCOLS
        ]
        for clone in clones:
            assert clone is not slot and clone != slot
            assert type(clone) is PlaceholderVersion
            assert clone.state is slot.state
            assert (clone.entity, clone.writer, clone.position) == (
                "x", "t1", 3
            )
            if fill:
                assert clone.value == 7


class TestPlannedTransaction:
    def test_identity_equality(self):
        assert PlannedTransaction(transfer(), 0) != PlannedTransaction(
            transfer(), 0
        )

    def test_bind_derives_deps(self):
        from repro.model.batching import ReadBinding
        from repro.model.schedules import T_INIT

        ptxn = PlannedTransaction(transfer(), 1)
        ptxn.bind([ReadBinding("t1", 0, None, "t0"),
                   ReadBinding("t1", 1, None, T_INIT)])
        assert ptxn.deps == frozenset({"t0"}) and ptxn.txn == "t1"

    def test_pickle_round_trip(self):
        ptxn = PlannedTransaction(transfer(), 4)
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(ptxn, protocol))
            assert clone.transaction == ptxn.transaction
            assert clone.timestamp == 4 and clone.bindings == []
