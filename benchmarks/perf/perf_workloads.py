"""The benchmark's workloads, their inputs and the correctness gate.

Every workload is one ``repro.db.Database.run`` call: a registry
scenario, a ``RunConfig`` and a size N.  The stream is generated once
during set-up (:class:`MaterialisedScenario`) so the timed region is the
engine, not the generator; :func:`same_as_named_run` pins that the
replayed stream computes what a name-based ``Database.run`` does.
"""

from __future__ import annotations

import pathlib
import sys
from dataclasses import dataclass, field
from typing import Any

_SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
if str(_SRC) not in sys.path:
    # The benchmark runs from a bare checkout: no install, no PYTHONPATH.
    sys.path.insert(0, str(_SRC))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: str
    #: ``RunConfig`` options; the seed is added per run.
    config: dict[str, Any]
    #: size N of a timed repeat (the small size is N // 4).
    txns: int
    #: size the tier-1 smoke test runs.
    smoke_txns: int
    scenario_params: dict[str, Any] = field(default_factory=dict)
    #: same seed, same ``RunReport.as_dict()`` — all but the threaded one.
    deterministic: bool = True

    @property
    def retries(self) -> bool:
        """The online modes retry aborted attempts; the planner family
        runs each transaction once and loses the logic aborts."""
        return self.config["mode"] in ("serial", "parallel")


#: Attempts before a transaction is given up.  The default (8) drops
#: ~1 % of the contended workloads' transactions; a benchmark run must
#: not fail operations, so the retry budget is raised until none is.
_RETRY = 64

_READ_MOSTLY_PLANNED = dict(
    mode="planner", workers=2, batch_size=64, deterministic=True, gc=True
)

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        "oltp-contended",
        "online engine under heavy abort/retry on 8 accounts: scheduler "
        "decision and engine bookkeeping dominate, storage is ~2 %",
        "bank",
        dict(mode="serial", scheduler="mvto", workers=4, retry=_RETRY),
        txns=2400, smoke_txns=120,
        scenario_params=dict(n_accounts=8),
    ),
    Workload(
        "oltp-sgt",
        "same engine path under sgt: incremental Digraph cycle checks "
        "(trial copy + check per step) are most of the time",
        "bank",
        # Epochs of 64 steps, not the default 256: an abort replays the
        # epoch's accepted prefix through the graph, a cost so
        # heavy-tailed that at 256 the throughput of a 400-transaction
        # run still moves 19 % from seed to seed (7 % here).
        dict(mode="serial", scheduler="sgt", retry=_RETRY,
             epoch_max_steps=64),
        txns=2000, smoke_txns=100,
        scenario_params=dict(n_accounts=8),
    ),
    Workload(
        "sharded-2pc",
        "shard runtime: dispatch, ShardWorker, GroupCommitLog and "
        "cross-shard 2PC do real work; per-shard schedulers see short "
        "prefixes",
        "sharded-bank",
        dict(mode="parallel", scheduler="mvto", workers=2, batch_size=8,
             deterministic=True, retry=_RETRY),
        txns=12000, smoke_txns=160,
        scenario_params=dict(cross_fraction=0.1),
    ),
    Workload(
        "read-mostly-planned",
        "abort-free planner: planning + executor dominate, no scheduler "
        "runs, chains stay short - bypasses scheduler, GC and chain scans",
        "read-mostly",
        _READ_MOSTLY_PLANNED,
        txns=32000, smoke_txns=200,
    ),
    Workload(
        "long-chain-reexec",
        "four hot keys, gc off: chains grow to thousands of versions, "
        "store undo/rebind plus re-execution dominate, super-linear in N",
        "abort-heavy",
        dict(mode="planner", deterministic=True, gc=False),
        txns=8000, smoke_txns=200,
        scenario_params=dict(
            n_shards=2, accounts_per_shard=2, hot_fraction=0.9,
            abort_fraction=0.2,
        ),
    ),
    Workload(
        "audited-run",
        "read-mostly-planned with audit=True: obs tracing, schedule "
        "reconstruction and the polygraph decider priced in wall-clock",
        "read-mostly",
        dict(_READ_MOSTLY_PLANNED, audit=True),
        txns=10000, smoke_txns=200,
    ),
    Workload(
        "pipelined-threaded",
        "the default threaded planner: thread hand-off, placeholder "
        "waits and the GIL are on the path; counts may vary run to run",
        "read-mostly",
        dict(mode="pipelined", lookahead=1, workers=2, deterministic=False),
        txns=24000, smoke_txns=200,
        deterministic=False,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


class MaterialisedScenario:
    """A registry scenario whose streams were generated ahead of time.

    Replays the first ``n`` items for each prepared size, so every
    repeat (and both sizes — the small stream is a prefix of the large
    one, as it is for a freshly built scenario) sees the same input.
    """

    def __init__(self, scenario, sizes: tuple[int, ...]) -> None:
        self._initial = scenario.initial_state()
        stream = list(scenario.transaction_stream(max(sizes)))
        self._streams = {n: stream[:n] for n in sizes}
        self.invariant_holds = scenario.invariant_holds

    def initial_state(self) -> dict:
        return dict(self._initial)

    def transaction_stream(self, n_transactions: int):
        return iter(self._streams[n_transactions])


@dataclass
class Prepared:
    """What set-up leaves for the timed region."""

    workload: Workload
    seed: int
    sizes: tuple[int, ...]
    scenario: MaterialisedScenario
    config: Any  # repro.db.RunConfig
    database: Any  # repro.db.Database

    def run(self, txns: int):
        return self.database.run(self.scenario, self.config, txns=txns)


def set_up(workload: Workload, seed: int, sizes: tuple[int, ...]) -> Prepared:
    """Import, build the scenario, materialise the streams, warm up."""
    from repro.db import Database, RunConfig
    from repro.workloads import scenario_factory

    scenario = scenario_factory(
        workload.scenario, seed=seed, **workload.scenario_params
    )
    prepared = Prepared(
        workload, seed, sizes,
        MaterialisedScenario(scenario, sizes),
        RunConfig(seed=seed, **workload.config),
        Database(),
    )
    problems = gate(workload, prepared.run(min(sizes)), min(sizes))
    if problems:
        raise RuntimeError(f"{workload.name}: warm-up run: {problems}")
    return prepared


def gate(workload: Workload, report, txns: int) -> list[str]:
    """Why ``report`` is not a correct run of ``txns`` transactions."""
    problems = []
    if not (report.invariant_checked and report.invariant_ok):
        problems.append("invariant violated or unchecked")
    if report.submitted != txns:
        problems.append(f"submitted {report.submitted} of {txns}")
    lost = report.gave_up if workload.retries else report.aborted
    if report.committed + lost != report.submitted:
        problems.append(
            f"committed {report.committed} + lost {lost} != "
            f"submitted {report.submitted}"
        )
    if workload.config.get("audit") and not (
        report.audit is not None and report.audit.ok
    ):
        problems.append("audit did not certify the run")
    return problems


def failed_transactions(report, txns: int) -> int:
    """Given up, or not accounted for at all."""
    return report.gave_up + abs(txns - report.submitted)


def comparable(workload: Workload, report) -> dict:
    """``as_dict()`` without what legitimately differs between runs."""
    out = report.as_dict()
    # A scenario instance is reported under its class name.
    del out["scenario"]
    if not workload.deterministic:
        # Thread timing moves wall-clock throughput and the blocked-read
        # tallies; what was decided and committed must still agree.
        for key in ("throughput", "mode_specific"):
            del out[key]
    return out


def same_as_named_run(prepared: Prepared, materialised_report) -> list[str]:
    """The replayed stream computes what users get from the registry."""
    workload, txns = prepared.workload, materialised_report.submitted
    named = prepared.database.run(
        workload.scenario, prepared.config, txns=txns,
        **workload.scenario_params,
    )
    if comparable(workload, named) != comparable(
        workload, materialised_report
    ):
        return [f"materialised run differs from Database.run("
                f"{workload.scenario!r}) at {txns} transactions"]
    return []
