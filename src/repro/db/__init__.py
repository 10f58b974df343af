"""repro.db — one typed Database API over all execution modes.

The user-facing facade for running workloads (after the client APIs of
Hekaton-style engines — Larson et al. — and deterministic batch systems
— Faleiro & Abadi): a frozen, per-mode-validated :class:`RunConfig`, an
:class:`ExecutionBackend` registry the serial engine / shard runtime /
batch planner plug into, a uniform
:class:`RunReport` with a guaranteed cross-mode metric schema, and
:class:`Database` tying them to the scenario registry in
:mod:`repro.workloads`.  Writing a new backend?  The full protocol
contract, with the planner adapter (registered as ``planner`` and as
``pipelined``) as the worked example, is in ``docs/backend-authors.md``.

    from repro.db import Database, RunConfig

    report = Database().run(
        "read-mostly",
        RunConfig(mode="planner", workers=4, deterministic=True, seed=7),
        txns=400,
    )
    assert report.invariant_ok and report.as_dict()["cc_aborts"] == 0
"""

from repro.db.backends import (
    BackendAdapter,
    ExecutionBackend,
    PlannerBackend,
    SerialEngineBackend,
    ShardRuntimeBackend,
    backend_names,
    get_backend,
    register_backend,
)
from repro.db.config import MODE_OPTIONS, RunConfig
from repro.db.database import Database
from repro.db.report import GUARANTEED_SCHEMA, RunReport

__all__ = [
    "Database",
    "RunConfig",
    "RunReport",
    "GUARANTEED_SCHEMA",
    "MODE_OPTIONS",
    "ExecutionBackend",
    "BackendAdapter",
    "SerialEngineBackend",
    "ShardRuntimeBackend",
    "PlannerBackend",
    "register_backend",
    "get_backend",
    "backend_names",
]
