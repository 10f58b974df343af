"""Tracing across the four execution modes: one taxonomy, deterministic
byte-identity, and zero cost when off."""

import itertools
import json
import re

import pytest

from repro.db import Database, RunConfig
from repro.engine.engine import OnlineEngine
from repro.engine.factory import scheduler_factory
from repro.model.steps import read, write
from repro.obs import Tracer, read_jsonl, summarize, to_jsonl
from repro.obs.taxonomy import get_event
from repro.workloads.streams import ShardedBankScenario

MODES = ("serial", "parallel", "planner", "pipelined")


def run_traced(mode, trace, seed=3, txns=60):
    config = RunConfig(
        mode=mode, workers=2, deterministic=True, seed=seed, trace=trace
    )
    return Database().run("sharded-bank", config, txns=txns)


class TestDeterministicByteIdentity:
    @pytest.mark.parametrize("mode", MODES)
    def test_equal_seeds_equal_traces(self, mode):
        first, second = Tracer(), Tracer()
        run_traced(mode, first)
        run_traced(mode, second)
        assert to_jsonl(first) == to_jsonl(second)

    @pytest.mark.parametrize("mode", MODES)
    def test_written_files_identical(self, mode, tmp_path):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        run_traced(mode, a)
        run_traced(mode, b)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_different_seeds_differ(self):
        first, second = Tracer(), Tracer()
        run_traced("serial", first, seed=3)
        run_traced("serial", second, seed=4)
        assert to_jsonl(first) != to_jsonl(second)


class TestZeroCostWhenOff:
    @pytest.mark.parametrize("mode", MODES)
    def test_report_dict_identical_traced_or_not(self, mode):
        untraced = run_traced(mode, None)
        traced = run_traced(mode, Tracer())
        assert json.dumps(untraced.as_dict()) == json.dumps(
            traced.as_dict()
        )

    @pytest.mark.parametrize("mode", MODES)
    def test_telemetry_identical_traced_or_not(self, mode):
        untraced = run_traced(mode, None)
        traced = run_traced(mode, Tracer())
        assert untraced.telemetry() == traced.telemetry()


class TestLifecycleTaxonomy:
    """All four modes emit lifecycle events through the one Tracer."""

    @pytest.mark.parametrize("mode", MODES)
    def test_submits_and_commits_present(self, mode):
        tracer = Tracer()
        report = run_traced(mode, tracer)
        names = {e.name for e in tracer.events}
        assert "txn.submit" in names
        assert "txn.commit" in names
        # Shard-local engines also emit per-attempt commits on their own
        # tracks; the driver-level commits are the transaction outcomes.
        commits = [
            e for e in tracer.events
            if e.name == "txn.commit" and not e.track.startswith("shard-")
        ]
        assert len(commits) == report.committed
        # Every commit instant carries the transaction id.
        assert all("txn" in e.args for e in commits)

    @pytest.mark.parametrize("mode", ("planner", "pipelined"))
    def test_plan_modes_emit_stage_spans(self, mode):
        tracer = Tracer()
        run_traced(mode, tracer)
        summary = summarize(tracer.events, dropped=tracer.dropped)
        for phase in ("plan.batch", "execute.batch", "settle.batch"):
            assert phase in summary["phases"], phase
        assert summary["unclosed_spans"] == 0

    @pytest.mark.parametrize("scenario", ("sharded-bank", "abort-heavy"))
    @pytest.mark.parametrize("mode", MODES)
    def test_event_args_are_the_declared_payload(self, mode, scenario):
        """O302 gates event *names*; this gates their args: every key an
        event carries is back-ticked in its taxonomy payload cell."""
        tracer = Tracer(capacity=None)
        config = RunConfig(
            mode=mode, workers=2, deterministic=True, seed=3, trace=tracer
        )
        Database().run(scenario, config, txns=80, cross_fraction=0.5)
        assert tracer.events
        for event in tracer.events:
            declared = set(
                re.findall(r"`(\w+)`", get_event(event.name).payload)
            )
            assert set(event.args) <= declared, (event.name, event.args)

    def test_parallel_emits_votes_and_flushes(self):
        tracer = Tracer()
        config = RunConfig(
            mode="parallel", workers=2, deterministic=True, seed=3,
            trace=tracer,
        )
        Database().run(
            "sharded-bank", config, txns=60, cross_fraction=0.5
        )
        names = {e.name for e in tracer.events}
        assert "txn.vote" in names
        assert "2pc.flush" in names
        # Shard engines trace on their own tracks.
        tracks = {e.track for e in tracer.events}
        assert any(track.startswith("shard-") for track in tracks)

    def test_serial_emits_epoch_and_gc(self):
        tracer = Tracer()
        config = RunConfig(
            mode="serial", seed=3, trace=tracer, epoch_max_steps=32,
        )
        Database().run("bank", config, txns=80)
        names = {e.name for e in tracer.events}
        assert "epoch.close" in names
        assert "gc.collect" in names


class TestDataRecords:
    """Data steps travel once, on the commit record; an aborted attempt
    leaves only its abort record."""

    def test_serial_abort_records_say_what_the_attempt_did(self):
        tracer = Tracer(capacity=None)
        config = RunConfig(
            mode="serial", scheduler="mvto", workers=4, seed=3,
            trace=tracer,
        )
        report = Database().run("bank", config, txns=120, n_accounts=4)
        aborts = [e.args for e in tracer.events if e.name == "txn.abort"]
        assert report.aborted == len(aborts) > 0
        reasons = {args["reason"] for args in aborts}
        assert {"rejected", "cascade"} <= reasons
        committed = {
            op[1]
            for e in tracer.events if e.name == "txn.commit"
            for op in e.args["ops"] if len(op) == 2
        }
        attempts = {
            (e.args["txn"], e.args["seq"]) for e in tracer.events
            if e.name in ("txn.commit", "txn.abort")
        }
        for args in aborts:
            assert not set(args["installed"]) & committed, args
            if args["reason"] == "rejected":
                assert args["op"] in ("R", "W") and args["entity"], args
            if args["reason"] == "cascade":
                root = (args["root"], args["root_seq"])
                assert root in attempts, args
                assert root != (args["txn"], args["seq"]), args

    def test_commit_ops_are_the_served_versions(self):
        tracer = Tracer(capacity=None)
        engine = OnlineEngine(
            scheduler_factory("mvto"),
            initial={"x": 0}, tracer=tracer,
        )
        first = engine.begin("a", 2)
        engine.submit(first, write("a", "x"), value=1)
        engine.submit(first, read("a", "x"))
        engine.finish(first)
        second = engine.begin("b", 1)
        engine.submit(second, read("b", "x"))
        engine.finish(second)
        commits = [e.args for e in tracer.events if e.name == "txn.commit"]
        assert [args["ops"] for args in commits] == [
            [("x", 0), ("x", 0, "a")],
            [("x", 0, "a")],
        ]

    def test_untraced_attempt_builds_no_ops(self):
        engine = OnlineEngine(
            scheduler_factory("mvto"),
            initial={"x": 0},
        )
        attempt = engine.begin("a", 1)
        engine.submit(attempt, write("a", "x"), value=1)
        assert attempt.ops is None

    def test_planner_logic_abort_lists_its_slots(self):
        tracer = Tracer(capacity=None)
        config = RunConfig(
            mode="planner", workers=2, batch_size=8, deterministic=True,
            seed=3, trace=tracer,
        )
        report = Database().run(
            "abort-heavy", config, txns=80, abort_fraction=0.3
        )
        aborts = [e.args for e in tracer.events if e.name == "txn.abort"]
        assert len(aborts) == report.mode_specific["logic_aborted"] > 0
        assert any(args["installed"] for args in aborts)
        written = [
            op[1]
            for e in tracer.events if e.name == "txn.commit"
            for op in e.args["ops"] if len(op) == 2
        ]
        installed = [pos for args in aborts for pos in args["installed"]]
        assert not set(installed) & set(written)
        assert len(set(written + installed)) == len(written + installed)


class TestTraceRunOption:
    def test_path_option_writes_jsonl(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        report = run_traced("planner", path)
        meta, events = read_jsonl(path)
        assert meta["events"] == len(events) > 0
        commits = [e for e in events if e.name == "txn.commit"]
        assert len(commits) == report.committed

    @pytest.mark.parametrize("audit", [None, True])
    @pytest.mark.parametrize("mode", MODES)
    def test_path_trace_survives_a_crashed_run(self, mode, audit, tmp_path):
        """A partial trace of a crashed run is exactly when you want
        one — audited or not (the audited path used to write the file
        only after a clean finish)."""

        class CrashingScenario(ShardedBankScenario):
            def transaction_stream(self, n_transactions):
                yield from itertools.islice(
                    super().transaction_stream(n_transactions), 30
                )
                raise RuntimeError("stream died mid-run")

        path = str(tmp_path / "trace.jsonl")
        config = RunConfig(
            mode=mode, workers=2, deterministic=True, seed=3,
            trace=path, audit=audit,
        )
        with pytest.raises(RuntimeError, match="stream died mid-run"):
            Database().run(CrashingScenario(n_shards=2, seed=3), config)
        meta, events = read_jsonl(path)
        assert meta["events"] == len(events) > 0
        assert any(e.name == "txn.submit" for e in events)

    def test_trace_option_rejected_with_bad_type(self):
        with pytest.raises(ValueError, match="trace"):
            RunConfig(mode="serial", trace=42)

    def test_trace_not_in_config_dict(self):
        config = RunConfig(mode="serial", trace=Tracer())
        assert "trace" not in config.as_dict()
