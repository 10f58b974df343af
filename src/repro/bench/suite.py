"""`BenchCase`/`BenchSuite`: the declarative benchmark registry.

Before this module every E-experiment hard-coded its own matrix of
``RunConfig``s inline, so the CLI and CI had no way to run "the E17
matrix" — only pytest could, and only as a side effect of the txt
table.  A :class:`BenchSuite` inverts that: it *declares* the matrix —
each :class:`BenchCase` names a registered scenario, its parameters,
and the ``RunConfig`` keyword set — and the runner
(:mod:`repro.bench.runner`), the benchmarks, the CLI (``repro bench``)
and CI all execute the same declaration.

The registry mirrors the backend and scenario registries
(:func:`repro.db.backends.register_backend`,
``repro.workloads.registry``): suites are named, discoverable
(:func:`suite_names`), and an unknown name is a ``ValueError`` listing
the choices.  The built-in suites re-declare the E15–E18 experiment
matrices plus the tiny ``smoke`` suite CI gates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping

from repro.db import RunConfig


def _frozen(mapping: Mapping[str, Any] | None) -> Mapping[str, Any]:
    return MappingProxyType(dict(mapping or {}))


@dataclass(frozen=True)
class BenchCase:
    """One cell of a suite's matrix: scenario × configuration × size.

    ``config`` holds :class:`~repro.db.RunConfig` keyword arguments (so
    declarations stay data, serializable into the record); the resolved
    config is built fresh per run via :meth:`run_config`, which also
    applies the backend's defaults and validation.
    """

    case_id: str
    scenario: str
    config: Mapping[str, Any]
    scenario_params: Mapping[str, Any] = field(default_factory=dict)
    #: logical transactions drained per run (the runner and CLI may
    #: override for smoke-size passes).
    txns: int = 200

    def __post_init__(self) -> None:
        if not self.case_id:
            raise ValueError("case_id must be non-empty")
        if self.txns < 1:
            raise ValueError(f"txns must be >= 1, got {self.txns}")
        object.__setattr__(self, "config", _frozen(self.config))
        object.__setattr__(
            self, "scenario_params", _frozen(self.scenario_params)
        )
        # Invalid declarations fail at registration — and so do
        # wall-clock ones: the harness records tick-clocked runs.
        # Resolved through the backend's defaults, so ``serial``
        # passes without saying so.
        if not self.run_config().deterministic:
            raise ValueError(
                f"case {self.case_id!r} resolves to deterministic=False: "
                "repro.bench records tick-clocked runs — wall-clock "
                "questions belong to benchmarks/perf"
            )

    def run_config(self) -> RunConfig:
        """A fresh, backend-validated config for this case."""
        return RunConfig(**self.config)


@dataclass(frozen=True)
class BenchSuite:
    """A named, ordered set of cases measured and recorded together."""

    name: str
    description: str
    cases: tuple[BenchCase, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for case in self.cases:
            if case.case_id in seen:
                raise ValueError(
                    f"suite {self.name!r} declares case "
                    f"{case.case_id!r} twice"
                )
            seen.add(case.case_id)

    def case(self, case_id: str) -> BenchCase:
        for case in self.cases:
            if case.case_id == case_id:
                return case
        raise ValueError(
            f"suite {self.name!r} has no case {case_id!r}; one of "
            f"{[c.case_id for c in self.cases]}"
        )


_SUITES: dict[str, BenchSuite] = {}


def register_suite(suite: BenchSuite, *, replace: bool = False) -> BenchSuite:
    """Register ``suite`` under ``suite.name`` (the whole plug-in step:
    ``repro bench run/list`` and the benchmarks resolve through here)."""
    if not suite.name:
        raise ValueError("suite must have a non-empty name")
    if suite.name in _SUITES and not replace:
        raise ValueError(
            f"suite {suite.name!r} already registered "
            f"(pass replace=True to override)"
        )
    _SUITES[suite.name] = suite
    return suite


def get_suite(name: str) -> BenchSuite:
    """The suite registered as ``name``; unknown names list choices."""
    try:
        return _SUITES[name]
    except KeyError:
        raise ValueError(
            f"unknown bench suite {name!r}; one of {sorted(_SUITES)}"
        ) from None


def suite_names() -> tuple[str, ...]:
    """Registered suite names, in registration order."""
    return tuple(_SUITES)


# -- the built-in suites: the E15–E18 matrices, declared once --------------

#: the E16/E17/E18 shared workload parameterizations (seed 5 streams,
#: config seed 11 — the numbers the committed txt tables were measured
#: under).
_SHARDED_BANK = {
    "n_shards": 4, "accounts_per_shard": 4, "cross_fraction": 0.1,
    "hot_fraction": 0.2, "seed": 5,
}
_READ_MOSTLY = {
    "n_shards": 4, "accounts_per_shard": 4, "read_fraction": 0.9,
    "hot_fraction": 0.6, "seed": 5,
}
#: the logic-abort stress: a quarter of the stream logic-aborts, so
#: readers of dead writers re-bind and committed throughput must match
#: the serial engine's.
_ABORT_HEAVY = {
    "n_shards": 4, "accounts_per_shard": 4, "cross_fraction": 0.2,
    "hot_fraction": 0.2, "abort_fraction": 0.25, "seed": 5,
}


def _e15_cases() -> tuple[BenchCase, ...]:
    params = {
        "bank": {"n_accounts": 8, "hot_fraction": 0.5, "audit_every": 8,
                 "seed": 7},
        "inventory": {"n_warehouses": 4, "seed": 7},
    }
    cases = []
    for workload in ("bank", "inventory"):
        for scheduler in ("2pl", "sgt", "2v2pl", "mvto", "si"):
            for gc_tag, gc_enabled in (("gc", True), ("nogc", False)):
                cases.append(BenchCase(
                    case_id=f"{workload}/{scheduler}/{gc_tag}",
                    scenario=workload,
                    scenario_params=params[workload],
                    config={
                        "mode": "serial", "scheduler": scheduler,
                        "workers": 4, "gc": gc_enabled, "gc_every": 16,
                        "epoch_max_steps": 128, "seed": 11,
                    },
                    txns=120,
                ))
    return tuple(cases)


def _e16_cases() -> tuple[BenchCase, ...]:
    cases = []
    for scheduler in ("mvto", "si"):
        cases.append(BenchCase(
            case_id=f"serial/{scheduler}",
            scenario="sharded-bank",
            scenario_params=_SHARDED_BANK,
            config={"mode": "serial", "scheduler": scheduler,
                    "workers": 4, "epoch_max_steps": 256, "seed": 11},
            txns=400,
        ))
        for workers in (1, 2, 4):
            for batch in (1, 16):
                cases.append(BenchCase(
                    case_id=f"{scheduler}/w{workers}/b{batch}/det",
                    scenario="sharded-bank",
                    scenario_params=_SHARDED_BANK,
                    config={"mode": "parallel", "scheduler": scheduler,
                            "workers": workers, "batch_size": batch,
                            "deterministic": True, "seed": 11},
                    txns=400,
                ))
    return tuple(cases)


def _e17_cases() -> tuple[BenchCase, ...]:
    scenarios = {
        "sharded-bank": _SHARDED_BANK, "read-mostly": _READ_MOSTLY,
    }
    cases = []
    for wname, params in scenarios.items():
        cases.append(BenchCase(
            case_id=f"{wname}/serial",
            scenario=wname,
            scenario_params=params,
            config={"mode": "serial", "scheduler": "mvto", "workers": 4,
                    "seed": 11},
            txns=400,
        ))
        cases.append(BenchCase(
            case_id=f"{wname}/parallel-det",
            scenario=wname,
            scenario_params=params,
            config={"mode": "parallel", "scheduler": "mvto",
                    "workers": 4, "deterministic": True, "seed": 11},
            txns=400,
        ))
        for workers in (1, 2, 4):
            cases.append(BenchCase(
                case_id=f"{wname}/planner/w{workers}/det",
                scenario=wname,
                scenario_params=params,
                config={"mode": "planner", "workers": workers,
                        "batch_size": 64, "deterministic": True,
                        "seed": 11},
                txns=400,
            ))
    # The abort-heavy column: serial baseline and planner — committed
    # counts are the point of comparison.
    cases.append(BenchCase(
        case_id="abort-heavy/serial",
        scenario="abort-heavy",
        scenario_params=_ABORT_HEAVY,
        config={"mode": "serial", "scheduler": "mvto", "workers": 4,
                "seed": 11},
        txns=400,
    ))
    cases.append(BenchCase(
        case_id="abort-heavy/planner",
        scenario="abort-heavy",
        scenario_params=_ABORT_HEAVY,
        config={"mode": "planner", "workers": 4, "batch_size": 64,
                "deterministic": True, "seed": 11},
        txns=400,
    ))
    return tuple(cases)


def _e18_cases() -> tuple[BenchCase, ...]:
    """The planner's one knob: batch size (a quarter of, equal to and
    four times the default), on the two E17 workloads and the
    abort-heavy stream."""
    scenarios = {
        "sharded-bank": _SHARDED_BANK, "read-mostly": _READ_MOSTLY,
        "abort-heavy": _ABORT_HEAVY,
    }
    return tuple(
        BenchCase(
            case_id=f"{wname}/planner/b{batch_size}/det",
            scenario=wname,
            scenario_params=params,
            config={"mode": "planner", "workers": 4,
                    "batch_size": batch_size, "deterministic": True,
                    "seed": 11},
            txns=400,
        )
        for wname, params in scenarios.items()
        for batch_size in (16, 64, 256)
    )


def _smoke_cases() -> tuple[BenchCase, ...]:
    """One deterministic case per execution mode, at CI-smoke size.

    Deterministic on purpose: committed throughput is tick-based, so
    the committed baseline (``benchmarks/baselines/smoke.json``) gates
    *logical* regressions — a slower plan, extra aborts, longer commit
    paths — machine-independently, with zero shared-runner noise.
    """
    return (
        BenchCase(
            case_id="bank/serial",
            scenario="bank",
            scenario_params={"n_accounts": 8, "hot_fraction": 0.5,
                             "audit_every": 8, "seed": 7},
            config={"mode": "serial", "scheduler": "mvto", "workers": 4,
                    "seed": 11},
            txns=120,
        ),
        BenchCase(
            case_id="sharded-bank/parallel-det",
            scenario="sharded-bank",
            scenario_params=_SHARDED_BANK,
            config={"mode": "parallel", "scheduler": "mvto",
                    "workers": 4, "deterministic": True, "seed": 11},
            txns=120,
        ),
        BenchCase(
            case_id="read-mostly/planner-det",
            scenario="read-mostly",
            scenario_params=_READ_MOSTLY,
            config={"mode": "planner", "workers": 4, "batch_size": 64,
                    "deterministic": True, "seed": 11},
            txns=120,
        ),
        BenchCase(
            case_id="read-mostly/pipelined-det",
            scenario="read-mostly",
            scenario_params=_READ_MOSTLY,
            config={"mode": "pipelined", "workers": 4, "batch_size": 64,
                    "lookahead": 2, "deterministic": True, "seed": 11},
            txns=120,
        ),
        # Logic aborts: the committed baseline pins the throughput the
        # read-time re-bind keeps — a regression that lets a dead
        # writer take its readers down shows up as this case's
        # committed count falling.
        BenchCase(
            case_id="abort-heavy/planner-det",
            scenario="abort-heavy",
            scenario_params=_ABORT_HEAVY,
            config={"mode": "planner", "workers": 4, "batch_size": 64,
                    "deterministic": True, "seed": 11},
            txns=120,
        ),
    )


def _audit_cases() -> tuple[BenchCase, ...]:
    """Plain vs continuously-verified pairs, one per execution mode.

    Measures the cost of ``audit=True`` (which traces internally and
    certifies every epoch online) against the plain run.  Throughput
    is tick-based and the auditor consumes no ticks, so the *logical*
    overhead gates at exactly zero; the pairs keep the audited path
    exercised under the bench runner (its wall-clock price is
    ``benchmarks/perf``'s ``audited-run``).  The traced-only vs
    traced+audited comparison lives in
    ``benchmarks/test_bench_audit.py`` (declarative cases cannot carry
    a live ``Tracer``).
    """
    configs = {
        "serial": {"mode": "serial", "scheduler": "mvto", "workers": 4,
                   "seed": 11},
        "parallel": {"mode": "parallel", "scheduler": "mvto",
                     "workers": 4, "deterministic": True, "seed": 11},
        "planner": {"mode": "planner", "workers": 4, "batch_size": 64,
                    "deterministic": True, "seed": 11},
        "pipelined": {"mode": "pipelined", "workers": 4,
                      "batch_size": 64, "lookahead": 2,
                      "deterministic": True, "seed": 11},
    }
    cases = []
    for mode, config in configs.items():
        for tag, audited in (("plain", False), ("audited", True)):
            case_config = dict(config)
            if audited:
                case_config["audit"] = True
            cases.append(BenchCase(
                case_id=f"sharded-bank/{mode}/{tag}",
                scenario="sharded-bank",
                scenario_params=_SHARDED_BANK,
                config=case_config,
                txns=120,
            ))
    return tuple(cases)


register_suite(BenchSuite(
    name="e15",
    description=(
        "online engine: abort/retry throughput and GC retention "
        "(bank + inventory × five schedulers × gc on/off)"
    ),
    cases=_e15_cases(),
))
register_suite(BenchSuite(
    name="e16",
    description=(
        "parallel shard runtime vs serial engine "
        "(scheduler × workers × batch, sharded bank)"
    ),
    cases=_e16_cases(),
))
register_suite(BenchSuite(
    name="e17",
    description=(
        "abort-free batch planner vs serial engine and shard runtime "
        "(sharded-bank + read-mostly)"
    ),
    cases=_e17_cases(),
))
register_suite(BenchSuite(
    name="e18",
    description=(
        "batch planner by batch size: batching delay vs settles "
        "(sharded-bank + read-mostly + abort-heavy)"
    ),
    cases=_e18_cases(),
))
register_suite(BenchSuite(
    name="smoke",
    description=(
        "CI regression gate: one deterministic case per execution "
        "mode, tick-based throughput vs the committed baseline"
    ),
    cases=_smoke_cases(),
))
register_suite(BenchSuite(
    name="audit",
    description=(
        "continuous-verification overhead: plain vs audited runs, "
        "one pair per execution mode (sharded bank)"
    ),
    cases=_audit_cases(),
))
