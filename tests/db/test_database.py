"""Database facade: backend dispatch, the cross-mode metric contract,
deterministic reproducibility, and registry extension."""

import json

import pytest

from repro.db import (
    GUARANTEED_SCHEMA,
    BackendAdapter,
    Database,
    RunConfig,
    RunReport,
    backend_names,
    get_backend,
    register_backend,
)
from repro.db.backends import _REGISTRY
from repro.workloads.streams import ShardedBankScenario

MODES = ("serial", "parallel", "planner", "pipelined")
#: modes whose only aborts are logic aborts.
PLAN_MODES = ("planner", "pipelined")


def small_config(mode, **overrides):
    overrides.setdefault("workers", 2)
    overrides.setdefault("deterministic", True)
    overrides.setdefault("seed", 3)
    return RunConfig(mode=mode, **overrides)


class TestRun:
    @pytest.mark.parametrize("mode", MODES)
    def test_named_scenario(self, mode):
        report = Database().run(
            "sharded-bank", small_config(mode), txns=60
        )
        assert report.mode == mode
        assert report.scenario == "sharded-bank"
        assert report.committed > 0
        assert report.invariant_ok
        assert report.final_state  # exposed for inspection
        assert report.metrics is not None  # native drill-down

    def test_scenario_instance(self):
        scenario = ShardedBankScenario(
            n_shards=2, accounts_per_shard=4, seed=5
        )
        report = Database().run(
            scenario, small_config("planner"), txns=40
        )
        assert report.scenario == "ShardedBankScenario"
        assert report.committed == 40
        assert report.cc_aborts == 0

    def test_instance_plus_params_rejected(self):
        scenario = ShardedBankScenario(n_shards=2, seed=5)
        with pytest.raises(ValueError, match="scenario_params"):
            Database().run(scenario, small_config("serial"), seed=7)

    def test_non_scenario_rejected(self):
        with pytest.raises(TypeError, match="not a scenario"):
            Database().run(object(), small_config("serial"))

    def test_missing_invariant_reported_as_unchecked(self):
        class Oracleless:
            def initial_state(self):
                return {"a": 1, "b": 2}

            def transaction_stream(self, n):
                return iter(())

        report = Database().run(Oracleless(), small_config("serial"))
        assert report.invariant_ok  # vacuous...
        assert not report.invariant_checked  # ...and says so
        assert "unchecked" in report.report()

    def test_default_config_from_constructor(self):
        db = Database(small_config("planner"))
        report = db.run("sharded-bank", txns=30)
        assert report.mode == "planner"

    def test_registries_discoverable(self):
        assert set(Database.backends()) == set(MODES)  # incl. pipelined
        assert set(Database.scenarios()) == {
            "bank", "inventory", "sharded-bank", "read-mostly",
            "abort-heavy",
        }


class TestMetricContract:
    """The satellite-pinned cross-mode contract: every registered
    backend yields the guaranteed keys, same types, stable order — and
    deterministic runs are byte-identical across invocations."""

    @pytest.mark.parametrize("mode", backend_names())
    def test_guaranteed_schema(self, mode):
        report = Database().run(
            "sharded-bank", small_config(mode), txns=40
        )
        d = report.as_dict()
        assert list(d) == [name for name, _ in GUARANTEED_SCHEMA]
        for name, expected_type in GUARANTEED_SCHEMA:
            assert isinstance(d[name], expected_type), (mode, name)
        json.dumps(d)  # JSON-serializable all the way down

    @pytest.mark.parametrize("mode", backend_names())
    def test_deterministic_runs_byte_identical(self, mode):
        dumps = [
            json.dumps(
                Database().run(
                    "sharded-bank", small_config(mode), txns=50
                ).as_dict()
            )
            for _ in range(2)
        ]
        assert dumps[0] == dumps[1]

    def test_accounting_closes_per_mode(self):
        """``cc_aborts`` counts concurrency-control aborts only: a
        program's own rollback costs an attempt (``aborted``) in every
        mode but is a CC abort in none."""
        for scenario in ("sharded-bank", "abort-heavy"):
            for mode in MODES:
                r = Database().run(scenario, small_config(mode), txns=50)
                assert r.submitted == r.committed + r.gave_up + (
                    r.aborted if mode in PLAN_MODES else 0
                )
                if mode in PLAN_MODES:
                    assert r.cc_aborts == 0
                    continue
                logic = r.metrics.aborted_logic
                assert r.cc_aborts == r.aborted - logic
                assert (logic > 0) == (scenario == "abort-heavy"), mode

    def test_throughput_zeroed_only_in_dict(self):
        # The attribute keeps wall-clock (benchmarks need it); the dict
        # zeroes it so deterministic reports stay byte-stable.
        report = Database().run(
            "sharded-bank", small_config("planner"), txns=40
        )
        assert report.as_dict()["throughput"] == 0.0
        assert report.elapsed > 0


class TestBackendRegistry:
    def test_unknown_backend_lists_choices(self):
        with pytest.raises(ValueError, match="one of"):
            get_backend("quantum")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(get_backend("serial"))

    def test_custom_backend_plugs_into_everything(self):
        """Registering an adapter is the whole plug-in step.  The backend
        declares ``name``/``description``/``defaults``/``_execute`` and
        nothing else: option rejection, default resolution, Database
        dispatch and the report contract all derive from those."""

        class EchoBackend(BackendAdapter):
            name = "echo"
            description = "commits nothing, proves the protocol"
            defaults = {"workers": 1, "deterministic": True}

            def _execute(self, stream, initial, config, tracer):
                from repro.engine.metrics import EngineMetrics

                assert not tracer.enabled  # no "trace" key: NULL_TRACER
                metrics = EngineMetrics()
                for _ in stream:
                    metrics.gave_up += 1
                return metrics, dict(initial)

        assert {n for n in vars(EchoBackend) if not n.startswith("__")} == {
            "name", "description", "defaults", "_execute",
        }
        register_backend(EchoBackend())
        try:
            assert "echo" in Database.backends()
            # applicability is the key set of ``defaults`` — including
            # for ``trace``/``audit``, which this backend never listed.
            for option in ({"batch_size": 4}, {"trace": "t.jsonl"},
                           {"audit": True}):
                with pytest.raises(
                    ValueError,
                    match=rf"option '{next(iter(option))}' does not apply "
                          r"to mode 'echo'; applicable options: "
                          r"\['deterministic', 'workers'\]",
                ):
                    RunConfig(mode="echo", **option)
            config = RunConfig(mode="echo", seed=3)
            assert (config.workers, config.deterministic) == (1, True)
            assert RunConfig(mode="echo", workers=5).workers == 5
            report = Database().run("sharded-bank", config, txns=10)
            assert isinstance(report, RunReport)
            assert (report.submitted, report.committed, report.aborted,
                    report.gave_up, report.cc_aborts) == (10, 0, 0, 10, 0)
            d = report.as_dict()
            assert list(d) == [name for name, _ in GUARANTEED_SCHEMA]
            for name, kind in GUARANTEED_SCHEMA:
                assert type(d[name]) is kind, name
        finally:
            del _REGISTRY["echo"]
