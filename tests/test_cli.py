"""The command-line interface."""

import json

import pytest

from repro.cli import _parse_cnf, main
from repro.workloads import scenario_names, scenario_spec


class TestClassify:
    def test_classify_output(self, capsys):
        assert main(["classify", "RA(x) WA(x) RB(x)"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1 region: serial" in out
        assert "mvsr: True" in out

    def test_bad_schedule_is_usage_error(self, capsys):
        assert main(["classify", "garbage"]) == 2
        assert "error:" in capsys.readouterr().err


class TestCheck:
    def test_positive(self, capsys):
        assert main(["check", "csr", "R1(x) W1(x) R2(x)"]) == 0
        assert "csr: True" in capsys.readouterr().out

    def test_negative_exit_code(self, capsys):
        assert main(["check", "csr", "R1(x) R2(x) W1(x) W2(x)"]) == 1
        assert "csr: False" in capsys.readouterr().out


class TestOLS:
    def test_section4_pair(self, capsys):
        s = "RA(x) WA(x) RB(x) RA(y) WA(y) RB(y) WB(y)"
        sp = "RA(x) WA(x) RB(x) RB(y) WB(y) RA(y) WA(y)"
        assert main(["ols", s, sp]) == 1
        assert "False" in capsys.readouterr().out

    def test_singleton(self, capsys):
        assert main(["ols", "R1(x) W1(x)"]) == 0


class TestSchedulers:
    def test_lists_all_schedulers(self, capsys):
        assert main(["schedulers", "W1(x) R2(x) R2(y) R1(y)"]) == 0
        out = capsys.readouterr().out
        for name in ("2pl", "sgt", "mvto", "mvcg", "polygraph", "maximal"):
            assert name in out


class TestFigure1:
    def test_all_ok(self, capsys):
        assert main(["figure1"]) == 0
        out = capsys.readouterr().out
        assert out.count("(ok)") == 6
        assert "MISMATCH" not in out


class TestCensus:
    def test_runs(self, capsys):
        assert main(
            ["census", "--samples", "20", "--txns", "2", "--steps", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "serial" in out and "mvcsr" in out


class TestSat:
    def test_parse_cnf(self):
        f = _parse_cnf("a|b & ~a|~b")
        assert len(f) == 2
        assert f.clauses[0] == (("a", True), ("b", True))
        assert f.clauses[1] == (("a", False), ("b", False))

    def test_sat(self, capsys):
        assert main(["sat", "a|b & ~a|~b"]) == 0
        assert "SAT" in capsys.readouterr().out

    def test_unsat_exit_code(self, capsys):
        assert main(["sat", "a & ~a"]) == 1
        assert "UNSAT" in capsys.readouterr().out


class TestArgValidation:
    """Bad numeric arguments die at parse time with a usage error."""

    def test_hot_fraction_out_of_range(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--hot-fraction", "1.5"])
        assert excinfo.value.code == 2
        assert "must be in [0, 1]" in capsys.readouterr().err

    def test_hot_fraction_not_a_number(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--hot-fraction", "hot"])
        assert excinfo.value.code == 2
        assert "not a number" in capsys.readouterr().err

    def test_fractions_validated_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--mode", "planner", "--scenario", "read-mostly",
                  "--read-fraction", "2"])
        assert excinfo.value.code == 2
        assert "must be in [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize(
        "flag",
        ["--entities", "--workers", "--batch-size", "--txns",
         "--accounts-per-shard", "--max-retries", "--epoch-steps",
         "--lookahead"],
    )
    def test_counts_must_be_positive(self, flag, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", flag, value])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--gc-every", "--audit-every"])
    def test_disableable_counts_must_not_be_negative(self, flag, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", flag, "-1"])
        assert excinfo.value.code == 2
        assert "must be >= 0" in capsys.readouterr().err

    def test_removed_aliases_are_usage_errors(self, capsys):
        for alias in ("engine", "runtime", "planner"):
            with pytest.raises(SystemExit) as excinfo:
                main([alias])
            assert excinfo.value.code == 2
            assert "invalid choice" in capsys.readouterr().err

    def test_engine_fault_is_one_clean_line(self, capsys, monkeypatch):
        """EngineError exits 1 with a single stderr line, no traceback."""
        import repro.cli as cli
        from repro.engine.errors import EngineError

        def explode(args):
            raise EngineError("replay rejected a committed step")

        # args.func is bound at parser build time, so patch the parser.
        real_build = cli.build_parser

        def patched_build():
            parser = real_build()
            original = parser.parse_args

            def parse_args(argv=None):
                args = original(argv)
                args.func = explode
                return args

            parser.parse_args = parse_args
            return parser

        monkeypatch.setattr(cli, "build_parser", patched_build)
        assert cli.main(["run", "--txns", "5"]) == 1
        err = capsys.readouterr().err
        assert err.strip() == (
            "engine fault: replay rejected a committed step"
        )
        assert "Traceback" not in err


#: the ``repro run`` workload-flag table as it was hand-written before
#: the CLI derived it from the scenario registry (flag → scenario →
#: parameter); the derived table must reproduce it exactly.
SCENARIO_FLAG_PARAMS = {
    "entities": {"bank": "n_accounts", "inventory": "n_warehouses"},
    "accounts_per_shard": {
        "sharded-bank": "accounts_per_shard",
        "abort-heavy": "accounts_per_shard",
        "read-mostly": "accounts_per_shard",
    },
    "hot_fraction": {
        "bank": "hot_fraction",
        "sharded-bank": "hot_fraction",
        "abort-heavy": "hot_fraction",
        "read-mostly": "hot_fraction",
    },
    "cross_fraction": {
        "sharded-bank": "cross_fraction",
        "abort-heavy": "cross_fraction",
    },
    "read_fraction": {"read-mostly": "read_fraction"},
    "abort_fraction": {"abort-heavy": "abort_fraction"},
    "audit_every": {"bank": "audit_every", "sharded-bank": "audit_every"},
}


class TestRun:
    """The unified execution entry point over the Database API."""

    def test_list_modes(self, capsys):
        assert main(["run", "--list-modes"]) == 0
        out = capsys.readouterr().out
        for mode in ("serial", "parallel", "planner", "pipelined"):
            assert mode in out
        assert "abort-free" in out  # registry descriptions shown

    def test_list_scenarios(self, capsys):
        assert main(["run", "--list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("bank", "inventory", "sharded-bank", "read-mostly"):
            assert name in out

    def test_bad_mode_shows_choices(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--mode", "quantum"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        for mode in ("serial", "parallel", "planner", "pipelined"):
            assert mode in err

    def test_bad_scenario_shows_choices(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--scenario", "tpc-c"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        for name in ("bank", "inventory", "sharded-bank", "read-mostly"):
            assert name in err

    def test_inapplicable_mode_option_is_usage_error(self, capsys):
        assert main(["run", "--mode", "serial", "--batch-size", "8"]) == 2
        err = capsys.readouterr().err
        assert "does not apply to mode 'serial'" in err
        assert "applicable options" in err

    def test_inapplicable_scenario_flag_is_usage_error(self, capsys):
        assert main([
            "run", "--scenario", "bank", "--read-fraction", "0.5",
        ]) == 2
        err = capsys.readouterr().err
        assert "does not apply to scenario 'bank'" in err
        assert "read-mostly" in err

    def test_scenario_flag_error_names_the_valid_flags(self, capsys):
        """The satellite fix: a flag/scenario mismatch names the flags
        the chosen scenario *does* accept, mirroring the RunConfig rule
        that a rejected option always lists the applicable ones."""
        assert main([
            "run", "--mode", "planner", "--scenario", "bank",
            "--cross-fraction", "0.2",
        ]) == 2
        err = capsys.readouterr().err
        assert "--cross-fraction does not apply to scenario 'bank'" in err
        # ...and what 'bank' would accept, as flag spellings.
        for flag in ("--entities", "--hot-fraction", "--audit-every"):
            assert flag in err

    def test_scenario_flag_error_lists_every_applicable_flag(self, capsys):
        for scenario, flags in {
            "inventory": ["--entities"],
            "sharded-bank": [
                "--accounts-per-shard", "--audit-every",
                "--cross-fraction", "--hot-fraction",
            ],
            "read-mostly": [
                "--accounts-per-shard", "--hot-fraction",
                "--read-fraction",
            ],
        }.items():
            assert main([
                "run", "--scenario", scenario, "--entities", "4",
            ] if scenario != "inventory" else [
                "run", "--scenario", scenario, "--read-fraction", "0.5",
            ]) == 2
            err = capsys.readouterr().err
            assert f"scenario {scenario!r} accepts" in err
            for flag in flags:
                assert flag in err, (scenario, flag)

    @pytest.mark.parametrize("flag", sorted(SCENARIO_FLAG_PARAMS))
    @pytest.mark.parametrize("scenario", scenario_names())
    def test_workload_flag_accepted_iff_scenario_declares_it(
        self, scenario, flag, capsys
    ):
        """The flag table is derived from ``ScenarioSpec.params``; it
        must equal the hand-written literal it replaced."""
        value = "3" if flag in ("entities", "accounts_per_shard",
                                "audit_every") else "0.5"
        code = main([
            "run", "--mode", "planner", "--scenario", scenario,
            "--txns", "8", "--deterministic",
            f"--{flag.replace('_', '-')}", value,
        ])
        captured = capsys.readouterr()
        param = SCENARIO_FLAG_PARAMS[flag].get(scenario)
        if param is None:
            assert code == 2
            assert f"does not apply to scenario {scenario!r}" in captured.err
            assert str(sorted(SCENARIO_FLAG_PARAMS[flag])) in captured.err
        else:
            assert code == 0, captured.err
            assert param in scenario_spec(scenario).params

    def test_derived_flag_table_equals_the_literal(self):
        from repro import cli

        assert cli._SCENARIO_FLAG_PARAMS == SCENARIO_FLAG_PARAMS
        assert list(cli._SCENARIO_FLAG_PARAMS) == list(SCENARIO_FLAG_PARAMS)

    def test_degenerate_scenario_size_is_usage_error(self, capsys):
        assert main(["run", "--scenario", "bank", "--entities", "1"]) == 2
        assert capsys.readouterr().err.strip() == (
            "error: n_accounts must be >= 2"
        )

    def test_serial_bank_run(self, capsys):
        assert main([
            "run", "--mode", "serial", "--scenario", "bank",
            "--txns", "30", "--workers", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "bank via serial backend" in out
        assert "committed" in out and "aborted" in out
        assert "invariant     ok" in out

    def test_parallel_run_reports_metrics(self, capsys):
        assert main([
            "run", "--mode", "parallel", "--scenario", "sharded-bank",
            "--workers", "4", "--txns", "60", "--deterministic",
            "--batch-size", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "sharded-bank via parallel backend" in out
        assert "4 conflict domains" in out
        assert "group commit" in out
        assert "latency" in out
        assert "invariant     ok" in out

    def test_shared_lock_table_note(self, capsys):
        assert main([
            "run", "--mode", "parallel", "--scenario", "sharded-bank",
            "--scheduler", "sgt", "--workers", "4",
            "--txns", "40", "--deterministic",
        ]) == 0
        out = capsys.readouterr().out
        assert "shared lock table" in out
        assert "1 conflict domain" in out

    def test_planner_run_reports_metrics(self, capsys):
        assert main([
            "run", "--mode", "planner", "--scenario", "read-mostly",
            "--workers", "2", "--txns", "50", "--read-fraction", "0.8",
        ]) == 0
        out = capsys.readouterr().out
        assert "read-mostly via planner backend" in out
        assert "cc aborts     0" in out
        assert "abort-free by construction" in out
        assert "invariant     ok" in out

    def test_pipelined_run_reports_metrics(self, capsys):
        """``--lookahead`` is accepted and echoed in the ``--json``
        config; the report is the planner's but for the mode name."""
        common = [
            "--scenario", "read-mostly", "--workers", "2", "--txns", "50",
            "--deterministic",
        ]
        pipelined = ["run", "--mode", "pipelined", "--lookahead", "2"]
        assert main([*pipelined, *common]) == 0
        out = capsys.readouterr().out
        assert "read-mostly via pipelined backend" in out
        assert "cc aborts     0" in out
        assert "invariant     ok" in out
        assert main(["run", "--mode", "planner", *common]) == 0
        planner = capsys.readouterr().out
        assert out.replace("via pipelined", "via planner") == planner
        assert main([*pipelined, *common, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["lookahead"] == 2

    def test_lookahead_rejected_off_pipelined(self, capsys):
        assert main([
            "run", "--mode", "planner", "--lookahead", "2",
        ]) == 2
        err = capsys.readouterr().err
        assert "lookahead" in err and "does not apply to mode" in err

    @pytest.mark.parametrize(
        "mode", ["serial", "parallel", "planner", "pipelined"]
    )
    def test_deterministic_json_is_byte_identical(self, mode, capsys):
        argv = [
            "run", "--mode", mode, "--scenario", "sharded-bank",
            "--txns", "50", "--deterministic", "--seed", "9", "--json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        report = json.loads(first)
        assert report["mode"] == mode
        assert report["invariant_ok"] is True

    @pytest.mark.parametrize(
        "mode", ["serial", "parallel", "planner", "pipelined"]
    )
    def test_deterministic_text_report_is_byte_identical(
        self, mode, capsys
    ):
        """No wall-clock figure reaches a deterministic text report."""
        argv = [
            "run", "--mode", mode, "--scenario", "sharded-bank",
            "--txns", "50", "--deterministic", "--seed", "9",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert "deterministic" in first and "txn/s" not in first

    def test_deterministic_output_is_byte_identical(self, capsys):
        argv = [
            "run", "--mode", "parallel", "--scenario", "sharded-bank",
            "--workers", "4", "--txns", "50", "--deterministic",
            "--seed", "9", "--cross-fraction", "0.4",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize(
        "scheduler", ["2pl", "2v2pl", "mvto", "sgt", "si"]
    )
    def test_serial_inventory_under_every_scheduler(
        self, scheduler, capsys
    ):
        assert main([
            "run", "--mode", "serial", "--scenario", "inventory",
            "--scheduler", scheduler, "--txns", "20", "--workers", "2",
            "--no-gc",
        ]) == 0
        out = capsys.readouterr().out
        assert f"txns, {scheduler}," in out
        assert "inventory via serial backend" in out
        assert "invariant     ok" in out

    def test_inventory_workload(self, capsys):
        assert main([
            "run", "--mode", "parallel", "--scenario", "inventory",
            "--scheduler", "si", "--txns", "40", "--deterministic",
        ]) == 0
        out = capsys.readouterr().out
        assert "invariant     ok" in out


class TestTrace:
    """`run --trace` and the `trace summarize` subcommand."""

    def test_unwritable_trace_path_fails_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "run", "--trace", "/nonexistent-dir/t.jsonl",
                "--txns", "5",
            ])
        assert excinfo.value.code == 2
        assert "directory does not exist" in capsys.readouterr().err

    def test_trace_then_summarize(self, capsys, tmp_path):
        path = str(tmp_path / "t.jsonl")
        assert main([
            "run", "--mode", "planner", "--scenario", "bank",
            "--txns", "40", "--deterministic", "--trace", path,
        ]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", path]) == 0
        out = capsys.readouterr().out
        assert "plan.batch" in out
        assert "critical path" in out
        assert "txn.commit" in out

    def test_summarize_non_trace_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("hello\n")
        assert main(["trace", "summarize", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_summarize_missing_file_is_usage_error(self, capsys):
        # Rejected at parse time by the shared path validator (the
        # same seam `repro audit` and `repro lint --baseline` use).
        with pytest.raises(SystemExit) as exc:
            main(["trace", "summarize", "/tmp/no-such-trace"])
        assert exc.value.code == 2
        assert "no such file" in capsys.readouterr().err

    def test_json_carries_telemetry_view(self, capsys):
        assert main([
            "run", "--mode", "serial", "--scenario", "bank",
            "--txns", "30", "--json",
        ]) == 0
        report = json.loads(capsys.readouterr().out)
        telemetry = report["telemetry"]
        assert set(telemetry) == {"counters", "gauges", "histograms"}
        assert telemetry["counters"]["engine.committed"] == (
            report["committed"]
        )
        assert "engine.latency" in telemetry["histograms"]

    def test_traced_json_equals_untraced_json(self, capsys, tmp_path):
        argv = [
            "run", "--mode", "pipelined", "--scenario", "read-mostly",
            "--workers", "2", "--txns", "40", "--deterministic",
            "--json",
        ]
        assert main(argv) == 0
        untraced = capsys.readouterr().out
        assert main(
            argv + ["--trace", str(tmp_path / "t.jsonl")]
        ) == 0
        traced = capsys.readouterr().out
        assert untraced == traced


class TestBench:
    """The `bench` subcommands: list, run, compare (the CI gate)."""

    def test_list_shows_registered_suites(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("e15", "e16", "e17", "e18", "smoke"):
            assert name in out

    def test_list_one_suite_shows_cases(self, capsys):
        assert main(["bench", "list", "--suite", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "bank/serial" in out
        assert "read-mostly/pipelined-det" in out

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["bench", "list", "--suite", "nope"]) == 2
        assert "unknown bench suite" in capsys.readouterr().err

    def test_run_writes_byte_identical_records(self, capsys, tmp_path):
        """The acceptance contract: two equal-seed deterministic runs
        of the same suite serialize byte-for-byte identically."""
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for path in (first, second):
            assert main([
                "bench", "run", "--suite", "smoke", "--txns", "12",
                "--json", str(path),
            ]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        document = json.loads(first.read_text())
        assert document["schema"] == "repro.bench/v1"
        assert len(document["records"]) == 5

    @pytest.mark.parametrize(
        "flag", [["--repeats", "2"], ["--warmup", "1"]]
    )
    def test_run_has_no_repeat_knobs(self, flag, capsys):
        # One deterministic run per case: nothing to repeat or warm up
        # (seconds are benchmarks/perf's).
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "run", "--suite", "smoke", *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_run_default_path_is_bench_suite_json(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main([
            "bench", "run", "--suite", "smoke", "--txns", "12",
        ]) == 0
        assert "BENCH_smoke.json" in capsys.readouterr().out
        assert (tmp_path / "BENCH_smoke.json").exists()

    def test_compare_gates_regressions(self, capsys, tmp_path):
        base = tmp_path / "base.json"
        cand = tmp_path / "cand.json"
        assert main([
            "bench", "run", "--suite", "smoke", "--txns", "12",
            "--json", str(base),
        ]) == 0
        # Same checkout, same seed: every case at ratio 1.0 — exit 0.
        assert main([
            "bench", "run", "--suite", "smoke", "--txns", "12",
            "--json", str(cand),
        ]) == 0
        assert main([
            "bench", "compare", str(base), str(cand),
            "--max-regress", "0.1",
        ]) == 0
        assert "-> ok" in capsys.readouterr().out
        # Halve one candidate median: regression — exit 1.
        document = json.loads(cand.read_text())
        document["records"][0]["throughput"]["median"] /= 2
        cand.write_text(json.dumps(document))
        assert main([
            "bench", "compare", str(base), str(cand),
            "--max-regress", "0.1",
        ]) == 1
        out = capsys.readouterr().out
        assert "regression" in out and "FAILED" in out

    def test_compare_missing_baseline_is_usage_error(
        self, capsys, tmp_path
    ):
        assert main([
            "bench", "compare", str(tmp_path / "absent.json"),
            str(tmp_path / "also-absent.json"),
        ]) == 2
        assert "no bench document" in capsys.readouterr().err

    def test_bad_max_regress_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "compare", "a", "b", "--max-regress", "2"])
        assert excinfo.value.code == 2


class TestAudit:
    """`run --audit` and the `audit` subcommand."""

    def test_run_audit_prints_verdict(self, capsys):
        assert main([
            "run", "--mode", "parallel", "--scenario", "sharded-bank",
            "--txns", "40", "--deterministic", "--audit",
        ]) == 0
        out = capsys.readouterr().out
        assert "certified 1-serializable" in out
        assert "graph 0, search 0)" in out

    def test_run_audit_json_carries_the_report(self, capsys):
        assert main([
            "run", "--mode", "planner", "--scenario", "bank",
            "--txns", "40", "--deterministic", "--audit", "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["audit"]["ok"] is True
        assert doc["audit"]["certified"] >= 1
        assert doc["audit"]["version"] == "repro.audit/v2"
        assert doc["audit"]["tiers"] == {
            "replay": doc["audit"]["segments"], "graph": 0, "search": 0,
        }
        assert doc["telemetry"]["counters"]["audit.tier.search"] == 0
        assert "audit" not in doc["config"]  # observability knob

    def test_trace_then_audit(self, capsys, tmp_path):
        path = str(tmp_path / "t.jsonl")
        json_path = str(tmp_path / "audit.json")
        assert main([
            "run", "--mode", "serial", "--scenario", "bank",
            "--txns", "40", "--trace", path, "--audit",
        ]) == 0
        capsys.readouterr()
        assert main(["audit", path, "--json", json_path]) == 0
        out = capsys.readouterr().out
        assert "CERTIFIED: 1-serializable" in out
        assert "search 0  (0 choices tried)" in out
        with open(json_path, encoding="utf-8") as source:
            doc = json.load(source)
        assert doc["ok"] is True and doc["violations"] == []

    def test_audit_flags_forged_trace_with_exit_1(self, capsys, tmp_path):
        path = str(tmp_path / "t.jsonl")
        assert main([
            "run", "--mode", "serial", "--scenario", "bank",
            "--txns", "40", "--trace", path,
        ]) == 0
        lines = open(path, encoding="utf-8").read().splitlines()
        for i, line in enumerate(lines):
            record = json.loads(line)
            if (record.get("name") == "txn.read"
                    and record["args"].get("pos") is not None):
                record["args"]["writer"] = "t9999"
                lines[i] = json.dumps(record)
                break
        open(path, "w", encoding="utf-8").write("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["audit", path]) == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out
        assert "read-from-mismatch" in out

    def test_audit_non_trace_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("hello\n")
        assert main(["audit", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


CLEAN_MODULE = "VALUE = 1\n"
DIRTY_MODULE = (
    "# repro: deterministic-contract\n"
    "items = {1, 2}\n"
    "for item in items:\n"
    "    print(item)\n"
)


class TestLint:
    """The `lint` subcommand: exit codes 0/1/2, JSON."""

    def test_clean_tree_exits_0(self, capsys, tmp_path):
        (tmp_path / "mod.py").write_text(CLEAN_MODULE)
        assert main(["lint", str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_1_and_name_the_rule(self, capsys, tmp_path):
        (tmp_path / "mod.py").write_text(DIRTY_MODULE)
        assert main(["lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "D101" in out
        assert "mod.py:3" in out

    def test_unknown_rule_is_usage_error(self, capsys, tmp_path):
        (tmp_path / "mod.py").write_text(CLEAN_MODULE)
        assert main(["lint", str(tmp_path), "--select", "NOPE"]) == 2
        assert "registered" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, capsys, tmp_path):
        assert main(["lint", str(tmp_path / "absent")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_select_and_ignore_narrow_the_run(self, capsys, tmp_path):
        (tmp_path / "mod.py").write_text(DIRTY_MODULE)
        assert main([
            "lint", str(tmp_path), "--select", "D101", "--ignore", "D101",
        ]) == 0
        assert "0 rule(s)" in capsys.readouterr().out

    def test_json_report_is_machine_readable(self, capsys, tmp_path):
        (tmp_path / "mod.py").write_text(DIRTY_MODULE)
        report_path = str(tmp_path / "LINT.json")
        assert main(["lint", str(tmp_path), "--json", report_path]) == 1
        with open(report_path, encoding="utf-8") as source:
            doc = json.load(source)
        assert doc["version"] == "repro.lint/v2"
        assert doc["ok"] is False
        assert [f["rule"] for f in doc["findings"]] == ["D101"]
        # fixed key order — byte-stable reports, like every record here.
        assert list(doc) == [
            "version", "files", "rules", "findings", "suppressed", "ok",
        ]

    @pytest.mark.parametrize("flag", ["--baseline", "--write-baseline"])
    def test_pragmas_are_the_only_waiver(self, flag, capsys, tmp_path):
        """No baseline file: a finding is fixed or carries a reasoned
        ``lint-ignore`` pragma on its own line."""
        (tmp_path / "mod.py").write_text(DIRTY_MODULE)
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", str(tmp_path), flag, str(tmp_path / "b.json")])
        assert excinfo.value.code == 2
        capsys.readouterr()
        (tmp_path / "mod.py").write_text(DIRTY_MODULE.replace(
            "for item in items:",
            "for item in items:  # repro: lint-ignore[D101] test fixture",
        ))
        assert main(["lint", str(tmp_path)]) == 0
        assert "suppressed 1" in capsys.readouterr().out


class TestSharedPathValidation:
    """`trace summarize` and `audit` share one parse-time path check."""

    def extract(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        # strip "usage: ..." and the "repro <cmd>: error: argument X: "
        # prefix, leaving just the type-check's own message.
        return err.splitlines()[-1].split(": ", 3)[3]

    def test_identical_error_text_for_a_missing_file(self, capsys, tmp_path):
        missing = str(tmp_path / "absent.jsonl")
        audit_msg = self.extract(capsys, ["audit", missing])
        trace_msg = self.extract(
            capsys, ["trace", "summarize", missing]
        )
        assert audit_msg == trace_msg
        assert audit_msg == f"no such file: '{missing}'"
