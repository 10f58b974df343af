"""Scenario registry: named, parameterized workload factories.

The Database API (:mod:`repro.db`) runs *scenarios* — objects exposing
the uniform stream interface every execution backend consumes::

    initial_state()            -> dict[Entity, value]
    transaction_stream(n)      -> iterator of (Transaction, Program|None)
    invariant_holds(state)     -> bool

The registry names them (``scenario_factory("sharded-bank", seed=7)``)
so benchmarks, the CLI and user code construct workloads from one
vocabulary instead of importing four differently-shaped classes.  Every
parameter is validated against the scenario's declared set — an unknown
knob is a ``ValueError`` listing the valid ones, never a silent drop
(the same contract :class:`repro.db.RunConfig` enforces for execution
options, and the CLI mirrors per scenario: a workload flag the chosen
scenario has no use for is rejected naming the flags it *does* accept).

Scenarios are execution-mode-agnostic: the same stream runs under any
registered backend (``serial`` / ``parallel`` / ``planner`` /
``pipelined`` — see ``docs/execution-modes.md``), which is what makes
the E15–E18 cross-mode comparisons same-input by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Mapping

from repro.model.steps import Entity
from repro.model.transactions import Transaction
from repro.storage.executor import Program
from repro.workloads.bank import BankWorkload
from repro.workloads.inventory import InventoryWorkload
from repro.workloads.streams import (
    AbortHeavyScenario,
    ReadMostlyScenario,
    ShardedBankScenario,
)


class _BankScenario:
    """:class:`BankWorkload` behind the uniform scenario interface.

    Binds ``audit_every`` (a stream-call argument on the workload) at
    construction so ``transaction_stream(n)`` has the registry-wide
    single-argument signature.
    """

    def __init__(self, *, audit_every: int = 0, **params) -> None:
        self.audit_every = audit_every
        self._workload = BankWorkload(**params)

    def initial_state(self) -> dict[Entity, int]:
        return self._workload.initial_state()

    def invariant_holds(self, state: Mapping[Entity, int]) -> bool:
        return self._workload.invariant_holds(state)

    def transaction_stream(
        self, n_transactions: int
    ) -> Iterator[tuple[Transaction, Program | None]]:
        return self._workload.transaction_stream(
            n_transactions, audit_every=self.audit_every
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One registry entry: how to build a scenario and what it accepts."""

    name: str
    factory: Callable
    #: keyword parameters the factory accepts (validated, never dropped).
    params: frozenset[str]
    description: str

    def build(self, **params):
        unknown = sorted(set(params) - self.params)
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {unknown} for scenario "
                f"{self.name!r}; valid: {sorted(self.params)}"
            )
        return self.factory(**params)


SCENARIOS: dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            name="bank",
            factory=_BankScenario,
            params=frozenset({
                "n_accounts", "hot_fraction", "audit_every",
                "audit_width", "initial_balance", "seed",
            }),
            description=(
                "uniform transfers over one account pool, optional "
                "hot-spot skew and read-only audits"
            ),
        ),
        ScenarioSpec(
            name="inventory",
            factory=InventoryWorkload,
            params=frozenset({"n_warehouses", "initial_stock", "seed"}),
            description=(
                "order processing against a single shared ledger — "
                "the high-contention stress"
            ),
        ),
        ScenarioSpec(
            name="sharded-bank",
            factory=ShardedBankScenario,
            params=frozenset({
                "n_shards", "accounts_per_shard", "cross_fraction",
                "hot_fraction", "hot_shards", "audit_every",
                "audit_width", "initial_balance", "seed",
            }),
            description=(
                "transfers pre-bucketed per shard with dialable "
                "cross-shard and hot-shard fractions"
            ),
        ),
        ScenarioSpec(
            name="abort-heavy",
            factory=AbortHeavyScenario,
            params=frozenset({
                "n_shards", "accounts_per_shard", "cross_fraction",
                "hot_fraction", "hot_shards", "abort_fraction",
                "initial_balance", "seed",
            }),
            description=(
                "sharded transfers where a seeded fraction logic-"
                "aborts — the planner family's logic-abort stress"
            ),
        ),
        ScenarioSpec(
            name="read-mostly",
            factory=ReadMostlyScenario,
            params=frozenset({
                "n_shards", "accounts_per_shard", "read_fraction",
                "hot_fraction", "hot_keys", "read_width",
                "initial_balance", "seed",
            }),
            description=(
                "~90/10 multi-key reads with hot-key skew — the "
                "abort-free planner's home turf"
            ),
        ),
    )
}


def scenario_names() -> tuple[str, ...]:
    """Registered scenario names, in registration order."""
    return tuple(SCENARIOS)


def scenario_spec(name: str) -> ScenarioSpec:
    """The spec for ``name``; unknown names list the valid choices."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; one of {sorted(SCENARIOS)}"
        ) from None


def scenario_factory(name: str, **params):
    """Build the named scenario, validating every parameter.

    The sharded scenarios replay their streams (a fresh RNG per
    ``transaction_stream`` call); ``bank``/``inventory`` draw from one
    workload RNG, so build a fresh instance per run when byte-identical
    reproduction matters — which is exactly what name-based
    :meth:`repro.db.Database.run` does.
    """
    return scenario_spec(name).build(**params)
