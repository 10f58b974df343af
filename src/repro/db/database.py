"""`Database`: the single user-facing entry point for running workloads.

Five lines is the whole story::

    from repro.db import Database, RunConfig

    db = Database()
    report = db.run("sharded-bank", RunConfig(mode="planner"), txns=400)
    print(report.report())

``run`` resolves the scenario (registry name or a ready instance), the
execution backend (``config.mode``), drains one stream through it and
returns the uniform :class:`~repro.db.RunReport` — invariant verdict
included.  The four built-in modes (``serial`` / ``parallel`` /
``planner`` / ``pipelined``) and the five built-in scenarios are
discoverable via :meth:`Database.backends` and
:meth:`Database.scenarios`; ``docs/execution-modes.md`` is the design
reference for what each mode guarantees.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.db.backends import backend_names, get_backend
from repro.db.config import RunConfig
from repro.db.report import RunReport
from repro.workloads.registry import scenario_factory, scenario_names


class Database:
    """One typed API over interchangeable concurrency-control backends.

    Stateless by design: each ``run`` builds a fresh scenario (for
    name-based calls) and a fresh backend engine, so two runs with the
    same config and seed are independent and — in deterministic modes —
    byte-identical.  An optional default config set at construction is
    used by ``run`` calls that pass none.
    """

    def __init__(self, config: RunConfig | None = None) -> None:
        self.config = config if config is not None else RunConfig()

    @staticmethod
    def backends() -> tuple[str, ...]:
        """Registered execution-mode names (see ``repro.db.backends``)."""
        return backend_names()

    @staticmethod
    def scenarios() -> tuple[str, ...]:
        """Registered scenario names (see ``repro.workloads.registry``)."""
        return scenario_names()

    def run(
        self,
        scenario,
        config: RunConfig | None = None,
        *,
        txns: int = 200,
        **scenario_params,
    ) -> RunReport:
        """Run ``txns`` transactions of ``scenario`` under ``config``.

        ``scenario`` is a registry name (built fresh via
        :func:`repro.workloads.scenario_factory`, with the config seed
        injected unless ``scenario_params`` carries its own) or an
        already-built scenario object (then ``scenario_params`` must be
        empty — the object is taken as configured).
        """
        if config is None:
            config = self.config
        if txns < 0:
            raise ValueError(f"txns must be >= 0, got {txns}")
        if isinstance(scenario, str):
            name = scenario
            scenario_params.setdefault("seed", config.seed)
            scenario = scenario_factory(name, **scenario_params)
        else:
            if scenario_params:
                raise ValueError(
                    "scenario_params only apply when scenario is a "
                    "registry name; got an instance plus "
                    f"{sorted(scenario_params)}"
                )
            name = type(scenario).__name__
        backend = get_backend(config.mode)
        initial = self._initial_state(scenario)
        invariant = getattr(scenario, "invariant_holds", None)
        return backend.run(
            scenario.transaction_stream(txns),
            initial,
            config,
            scenario=name,
            invariant=invariant,
        )

    @staticmethod
    def _initial_state(scenario) -> Mapping[str, Any]:
        initial = getattr(scenario, "initial_state", None)
        if initial is None or not hasattr(scenario, "transaction_stream"):
            raise TypeError(
                f"{type(scenario).__name__} is not a scenario: it has "
                "no initial_state()/transaction_stream(n) interface "
                "(see repro.workloads.registry)"
            )
        return initial()
