"""Every real run audits clean: scenarios × modes, live and post-hoc.

The positive half of the audit contract (the adversarial tests are the
negative half): all four execution modes, over every registered
scenario, reconstruct into certifiable schedules with zero violations —
and equal-seed deterministic runs certify byte-identically.
"""

import gc
import json
import types

import pytest

from repro.audit import Auditor, Segment, audit_events, audit_file
from repro.db import Database, RunConfig, backend_names
from repro.engine.factory import SCHEDULER_FACTORIES
from repro.model.schedules import Schedule
from repro.obs import EventLog, Tracer
from repro.workloads import scenario_names

MODES = backend_names()


#: code and namespaces: what an instance refers to without holding it.
_SHARED = (type, types.ModuleType, types.FunctionType, types.CodeType,
           types.BuiltinFunctionType)


def reachable(root) -> list:
    """Every object ``root`` holds, through references (functions,
    classes and modules are shared, not held, and not walked)."""
    seen, stack = {id(root): root}, [root]
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if id(ref) not in seen and not isinstance(ref, _SHARED):
                seen[id(ref)] = ref
                stack.append(ref)
    return list(seen.values())


def run_audited(
    mode, scenario, *, seed=3, txns=60, workers=2, scenario_params=None,
    **overrides
):
    config = RunConfig(
        mode=mode, workers=workers, deterministic=True, seed=seed,
        audit=True, **overrides,
    )
    return Database().run(
        scenario, config, txns=txns, **(scenario_params or {})
    )


class TestEveryScenarioEveryMode:
    @pytest.mark.parametrize(
        "mode, scenario, scheduler",
        [
            pytest.param(mode, scenario, None, id=f"{mode}-{scenario}")
            for mode in MODES
            for scenario in scenario_names()
        ]
        # The scheduler axis: every engine scheduler's served versions,
        # on four hot accounts so the abort path (truncate, replay,
        # re-verified reads) runs too.
        + [
            pytest.param("serial", "bank", s, id=f"serial-bank-{s}")
            for s in sorted(SCHEDULER_FACTORIES)
        ],
    )
    def test_clean_audit(self, mode, scenario, scheduler):
        if scheduler is None:
            report = run_audited(mode, scenario)
        else:
            report = run_audited(
                mode, scenario, scheduler=scheduler,
                scenario_params={"n_accounts": 4},
            )
            assert report.aborted > 0  # every abort is a replay
        audit = report.audit
        assert audit is not None
        assert audit.ok, audit.format()
        assert audit.violations == ()
        assert audit.segments == audit.certified > 0
        assert audit.reads > 0 and audit.writes > 0
        # Tier coverage: nothing needs the search, and on the rows where
        # the commit order was measured to be a witness for every
        # segment — the planner family's timestamp-ordered plans,
        # `parallel` under its default scheduler (the only one this
        # sweep runs it with), 2pl/2v2pl's lock-point commits — the
        # replay alone certifies.  Not an invariant of `parallel`:
        # under `si` it needs the derived order (pinned below).
        assert audit.tiers["search"] == 0 and audit.search_choices == ()
        if (
            mode in ("planner", "pipelined")
            or (mode == "parallel" and scheduler is None)
            or scheduler in ("2pl", "2v2pl")
        ):
            assert audit.tiers["replay"] == audit.segments
            assert audit.tiers["graph"] == 0

    @pytest.mark.parametrize(
        "mode, scheduler, workers",
        [("serial", s, 3) for s in ("mvto", "sgt", "si")]
        + [("parallel", "si", 4)],
    )
    def test_derived_order_certifies_late_committing_readers(
        self, mode, scheduler, workers
    ):
        # The rows that prove tier 1 is not dead code: under the
        # multiversion schedulers a long read-mostly transaction commits
        # after writers it is serialized before, so the commit order is
        # no witness — the serialization-graph order is.  Snapshot reads
        # do the same inside one `parallel` shard epoch.
        audit = run_audited(
            mode, "read-mostly", scheduler=scheduler, txns=300,
            workers=workers,
        ).audit
        assert audit.ok, audit.format()
        assert audit.tiers["graph"] > 0
        assert audit.tiers["search"] == 0
        assert audit.tiers["replay"] + audit.tiers["graph"] == audit.segments

    @pytest.mark.parametrize(
        "mode, overrides",
        [pytest.param(mode, {}, id=mode) for mode in MODES]
        # The shared-table schedulers run as one shared conflict
        # domain: it must certify 1-SR.
        + [
            pytest.param("parallel", {"scheduler": s}, id=f"parallel-{s}")
            for s in ("sgt", "2pl", "2v2pl")
        ],
    )
    def test_wall_clock_runs_audit_clean(self, mode, overrides):
        if mode == "serial":
            pytest.skip("serial is inherently deterministic")
        config = RunConfig(
            mode=mode, workers=3, deterministic=False, seed=7,
            audit=True, **overrides,
        )
        report = Database().run("sharded-bank", config, txns=60)
        assert report.audit.ok, report.audit.format()
        assert report.invariant_ok


class TestDeterministicByteIdentity:
    @pytest.mark.parametrize("mode", MODES)
    def test_equal_seed_reports_are_byte_identical(self, mode):
        first = run_audited(mode, "sharded-bank", seed=5)
        second = run_audited(mode, "sharded-bank", seed=5)
        assert first.audit.as_json() == second.audit.as_json()

    def test_report_json_has_fixed_key_order(self):
        doc = json.loads(run_audited("serial", "bank").audit.as_json())
        assert list(doc) == [
            "meta", "version", "ok", "events", "dropped", "tracks",
            "segments", "certified", "tiers", "search_choices",
            "committed_attempts", "reads", "writes", "violations",
        ]
        assert doc["version"] == "repro.audit/v2"
        assert list(doc["tiers"]) == ["replay", "graph", "search"]


class TestLiveEqualsPostHoc:
    """One verdict per run, however it is reached: the audit-only run
    (no event log at all), the run that also writes ``--trace PATH``,
    and ``repro audit PATH`` on that file."""

    @pytest.mark.parametrize(
        "mode, scenario, deterministic",
        [
            pytest.param(
                mode, scenario, deterministic,
                id=f"{mode}-{scenario}-{'det' if deterministic else 'wall'}",
            )
            for mode in MODES
            for scenario in scenario_names()
            # serial is inherently deterministic
            for deterministic in ((True,) if mode == "serial" else
                                  (True, False))
        ],
    )
    def test_audit_only_traced_and_post_hoc_agree(
        self, mode, scenario, deterministic, tmp_path
    ):
        path = tmp_path / "run.jsonl"
        config = dict(
            mode=mode, workers=2, deterministic=deterministic, seed=3,
            audit=True,
        )
        alone = Database().run(scenario, RunConfig(**config), txns=60)
        traced = Database().run(
            scenario, RunConfig(trace=str(path), **config), txns=60
        )
        assert alone.audit.ok and traced.audit.ok, traced.audit.format()
        assert alone.audit.as_json() == traced.audit.as_json()
        assert audit_file(str(path)).as_json() == traced.audit.as_json()

    @pytest.mark.parametrize("completion_order", range(5), indirect=True)
    @pytest.mark.parametrize("scheduler", ["mvto", "sgt"])
    def test_seeded_live_audit_equals_post_hoc(
        self, scheduler, completion_order
    ):
        # The live fold takes no lock per event: it folds the
        # ``shard-N`` tracks and ``driver`` as their events arrive, and
        # under a seeded completion order the shard tasks settle late
        # and interleave.  Half the transactions cross shards, so every
        # track emits throughout; mvto runs one domain per shard, sgt
        # one shared domain.  Whatever the order, the live verdict must
        # be the post-hoc audit of the complete stream.
        tracer = Tracer(capacity=None)
        config = RunConfig(
            mode="parallel", scheduler=scheduler, workers=2,
            seed=completion_order.seed, audit=True, trace=tracer,
        )
        report = Database().run(
            "sharded-bank", config, txns=120, cross_fraction=0.5,
        )
        events = tracer.events
        assert report.audit == audit_events(events)
        assert report.audit.events == len(events)
        assert report.audit.ok, report.audit.format()


class TestWiring:
    def test_audit_rides_a_passed_tracer(self):
        tracer = Tracer(capacity=None)
        config = RunConfig(
            mode="serial", workers=2, seed=3, trace=tracer, audit=True,
        )
        report = Database().run("bank", config, txns=40)
        assert report.audit.ok
        # The live log and a post-hoc replay agree exactly.
        replay = audit_events(list(tracer.log), dropped=tracer.log.dropped)
        assert replay.as_json() == report.audit.as_json()

    def test_audit_with_trace_path_persists_and_matches(self, tmp_path):
        path = tmp_path / "run.jsonl"
        config = RunConfig(
            mode="planner", workers=2, deterministic=True, seed=3,
            trace=str(path), audit=True,
        )
        report = Database().run("bank", config, txns=40)
        assert path.exists()
        assert audit_file(str(path)).as_json() == report.audit.as_json()

    def test_audit_defaults_off_and_stays_out_of_config_echo(self):
        config = RunConfig(mode="serial", workers=2, seed=3)
        assert config.audit is False
        report = Database().run("bank", config, txns=20)
        assert report.audit is None
        assert "audit" not in report.as_dict()["config"]
        audited = RunConfig(mode="serial", workers=2, seed=3, audit=True)
        assert "audit" not in audited.as_dict()

    def test_audited_run_publishes_the_tiers_as_telemetry(self):
        report = run_audited(
            "serial", "read-mostly", scheduler="sgt", txns=300, workers=3
        )
        view, audit = report.telemetry(), report.audit
        assert audit.tiers["graph"] > 0
        for tier, judged in audit.tiers.items():
            assert view["counters"][f"audit.tier.{tier}"] == judged
        assert view["histograms"]["audit.search.choices"]["count"] == 0
        plain = Database().run(
            "read-mostly", RunConfig(mode="serial", workers=3, seed=3),
            txns=60,
        )
        assert not any(
            name.startswith("audit.")
            for section in plain.telemetry().values() for name in section
        )

    def test_audit_does_not_change_the_guaranteed_report(self):
        plain = Database().run(
            "sharded-bank",
            RunConfig(mode="serial", workers=2, seed=3),
            txns=40,
        )
        audited = Database().run(
            "sharded-bank",
            RunConfig(mode="serial", workers=2, seed=3, audit=True),
            txns=40,
        )
        assert plain.as_dict() == audited.as_dict()

    def test_audit_must_be_bool(self):
        with pytest.raises(ValueError, match="audit must be a bool"):
            RunConfig(mode="serial", audit="yes")

    def test_human_report_carries_the_verdict(self):
        report = run_audited("serial", "bank")
        assert "certified 1-serializable" in report.report()

    @pytest.mark.parametrize("mode", ["serial", "planner"])
    def test_bounded_tracer_does_not_void_a_live_audit(self, mode):
        # A deliberately tiny ring buffer overflows, but the subscribed
        # auditor saw every event: the live verdict is the audit-only
        # run's, byte for byte.  Only the log is truncated, and a
        # post-hoc audit of that log still refuses it.
        tracer = Tracer(capacity=100)
        config = dict(mode=mode, seed=1, audit=True)
        report = Database().run(
            "read-mostly", RunConfig(trace=tracer, **config), txns=200
        )
        assert tracer.dropped > 0
        assert report.audit.ok and report.audit.dropped == 0
        assert report.audit.events == len(tracer.events) + tracer.dropped
        alone = Database().run("read-mostly", RunConfig(**config), txns=200)
        assert report.audit.as_json() == alone.audit.as_json()
        posthoc = audit_events(tracer.events, dropped=tracer.dropped)
        assert [v.code for v in posthoc.violations] == ["trace-dropped"]

    def test_audit_only_run_keeps_no_event_log(self, monkeypatch):
        appended = []
        monkeypatch.setattr(
            EventLog, "append", lambda log, event: appended.append(event)
        )
        report = run_audited("planner", "read-mostly", txns=200)
        assert report.audit.ok and report.audit.events > 0
        assert appended == []

    def test_live_auditor_keeps_no_segment_after_finish(self):
        tracer = Tracer(capacity=0)
        auditor = Auditor.attach(tracer)
        Database().run(
            "read-mostly",
            RunConfig(mode="planner", seed=3, trace=tracer, audit=False),
            txns=200,
        )
        report = auditor.finish()
        assert report.ok and report.segments > 1
        kept = reachable(auditor)
        assert not any(isinstance(o, (Segment, Schedule)) for o in kept)
        # Only the committed chain outlives the segments' verdicts.
        tracks = auditor._tracks
        assert all(t.ops == [] and t.commits == [] for t in tracks.values())
        assert [name for name, t in tracks.items() if t.chain] == ["driver"]
        assert len(tracks["driver"].chain) == report.writes

    def test_live_auditor_attach_detach(self):
        tracer = Tracer(capacity=None)
        auditor = Auditor.attach(tracer)
        tracer.instant("data", "txn.write", "engine",
                       txn="a", seq=0, entity="x", pos=1)
        tracer.instant("txn", "txn.commit", "engine", txn="a", seq=0)
        tracer.instant("epoch", "epoch.close", "engine")
        tracer.unsubscribe(auditor.feed)
        tracer.instant("epoch", "epoch.close", "engine")  # not seen
        report = auditor.finish()
        assert report.ok
        assert report.events == 3
        assert report.segments == 1
