"""The bench suite registry: declarations, validation, discovery."""

import pytest

from repro.bench import (
    BenchCase,
    BenchSuite,
    get_suite,
    register_suite,
    suite_names,
)
from repro.db import RunConfig


def case(case_id="c", **config):
    return BenchCase(
        case_id=case_id,
        scenario="bank",
        scenario_params={"n_accounts": 4, "seed": 7},
        config={"mode": "serial", "scheduler": "mvto", **config},
        txns=10,
    )


class TestBenchCase:
    def test_run_config_resolves_backend_defaults(self):
        c = case()
        cfg = c.run_config()
        assert isinstance(cfg, RunConfig)
        assert cfg.mode == "serial"
        # Serial mode is deterministic by default — registration
        # resolves through the backend even though the declaration
        # never says so.
        assert cfg.deterministic

    def test_declarations_are_frozen(self):
        c = case()
        with pytest.raises(TypeError):
            c.config["scheduler"] = "si"
        with pytest.raises(TypeError):
            c.scenario_params["seed"] = 0

    def test_invalid_config_fails_at_declaration(self):
        with pytest.raises(ValueError):
            case(mode="not-a-mode")

    def test_inapplicable_key_fails_at_declaration(self):
        # lookahead belongs to the pipelined backend, not serial.
        with pytest.raises(ValueError):
            case(lookahead=2)

    @pytest.mark.parametrize("mode", ["parallel", "planner", "pipelined"])
    def test_threaded_case_rejected_with_pointer_to_perf(self, mode):
        # The harness counts ticks; a threaded run's count does not
        # repeat.  Both an explicit False and a backend default of
        # "threaded" are refused, naming the wall-clock instrument.
        for config in ({"mode": mode, "deterministic": False},
                       {"mode": mode}):
            with pytest.raises(ValueError, match="benchmarks/perf"):
                BenchCase(case_id="thr", scenario="sharded-bank",
                          config=config, txns=10)

    def test_empty_case_id_rejected(self):
        with pytest.raises(ValueError, match="case_id"):
            case(case_id="")

    def test_nonpositive_txns_rejected(self):
        with pytest.raises(ValueError, match="txns"):
            BenchCase(
                case_id="c",
                scenario="bank",
                config={"mode": "serial", "scheduler": "mvto"},
                txns=0,
            )


class TestBenchSuite:
    def test_duplicate_case_ids_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            BenchSuite(
                name="dup", description="", cases=(case("a"), case("a"))
            )

    def test_case_lookup(self):
        s = BenchSuite(
            name="s", description="", cases=(case("a"), case("b"))
        )
        assert s.case("b").case_id == "b"
        with pytest.raises(ValueError, match="'a', 'b'"):
            s.case("zzz")



class TestRegistry:
    def test_builtin_suites_registered(self):
        assert set(suite_names()) >= {"e15", "e16", "e17", "e18", "smoke"}

    def test_unknown_suite_lists_choices(self):
        with pytest.raises(ValueError, match="smoke"):
            get_suite("nope")

    def test_double_registration_rejected_unless_replace(self):
        s = BenchSuite(name="_t", description="", cases=(case(),))
        try:
            register_suite(s)
            with pytest.raises(ValueError, match="already registered"):
                register_suite(s)
            register_suite(s, replace=True)
        finally:
            from repro.bench import suite as suite_mod

            suite_mod._SUITES.pop("_t", None)

    def test_builtin_suites_cover_every_mode_at_declared_sizes(self):
        smoke = get_suite("smoke")
        modes = {c.run_config().mode for c in smoke.cases}
        assert modes == {"serial", "parallel", "planner", "pipelined"}
        assert [len(get_suite(n).cases) for n in
                ("e15", "e16", "e17", "e18", "smoke", "audit")] == [
            20, 14, 12, 9, 5, 8,
        ]
        # E18 is the planner alone, by batch size.
        e18 = get_suite("e18").cases
        assert {c.run_config().mode for c in e18} == {"planner"}
        assert sorted({c.config["batch_size"] for c in e18}) == [
            16, 64, 256,
        ]
