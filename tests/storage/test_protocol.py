"""The ``VersionStore`` protocol is the drivers' call set.

The store implements it, and every ``…store.<name>`` under
``src/repro/{engine,planner,runtime}`` — called, or handed on as a bound
method — names one of its members or one of the declared extras of the
shard runtime's store container, so a new store call fails here until it
is declared.
"""

import ast
import pathlib

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
#: what the runtime uses of ``ShardedMultiversionStore`` on top of the
#: protocol's ``final_state``.
SHARDED_EXTRAS = {"shards", "snapshot_stats"}
DRIVERS = ("engine", "planner", "runtime")


def test_protocol_members_are_the_documented_set():
    declared = {
        name for name, value in vars(VersionStore).items()
        if callable(value) and not name.startswith("_")
    }
    assert declared == MEMBERS


def test_the_store_implements_it():
    assert isinstance(MultiversionStore(), VersionStore)
    assert not isinstance(object(), VersionStore)
    # The shard runtime's container holds stores; it is not one.
    assert not isinstance(ShardedMultiversionStore(2), VersionStore)


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
