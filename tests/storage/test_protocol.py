"""The ``VersionStore`` protocol is the drivers' call set.

Both stores implement it, and every ``…store.<name>`` under
``src/repro/{engine,planner,runtime}`` — called, or handed on as a bound
method — names one of its members or one of the sharded store's declared
extras, so a new store call fails here until it is declared.
"""

import ast
import pathlib

import pytest

import repro
from repro.storage import (
    MultiversionStore,
    ShardedMultiversionStore,
    VersionStore,
)

MEMBERS = {
    "install", "remove", "reserve", "fill", "poison",
    "prune_before", "latest", "latest_before", "entities",
    "version_count", "placeholder_count", "final_state",
}
#: what the planner and the runtime use of ``ShardedMultiversionStore``
#: on top of the protocol.
SHARDED_EXTRAS = {"shards", "n_shards", "snapshot_stats"}
DRIVERS = ("engine", "planner", "runtime")


def test_protocol_members_are_the_documented_set():
    declared = {
        name for name, value in vars(VersionStore).items()
        if callable(value) and not name.startswith("_")
    }
    assert declared == MEMBERS


@pytest.mark.parametrize(
    "store",
    [MultiversionStore(), ShardedMultiversionStore(2)],
    ids=["plain", "sharded"],
)
def test_both_stores_implement_it(store):
    assert isinstance(store, VersionStore)
    assert not isinstance(object(), VersionStore)


def store_uses(tree: ast.AST):
    """``(name, line)`` of every attribute read off something named
    ``store`` (``store.x``, ``self.store.x``, ``engine.store.x``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            receiver = node.value
            name = getattr(receiver, "attr", getattr(receiver, "id", None))
            if name == "store":
                yield node.attr, node.lineno


def test_drivers_use_nothing_else():
    root = pathlib.Path(repro.__file__).parent
    used = set()
    for package in DRIVERS:
        for path in sorted((root / package).glob("*.py")):
            for name, line in store_uses(ast.parse(path.read_text())):
                assert name in MEMBERS | SHARDED_EXTRAS, (
                    f"{path.name}:{line} uses store.{name}, which is "
                    f"neither a VersionStore member nor a declared extra"
                )
                used.add(name)
    # the narrowing holds in the other direction too: nothing is declared
    # that no driver uses
    assert used == MEMBERS | SHARDED_EXTRAS
