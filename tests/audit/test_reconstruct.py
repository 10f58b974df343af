"""ScheduleReconstructor: folding event streams into model schedules."""

import pytest

from repro.audit import ScheduleReconstructor, audit_events, audit_file
from repro.cli import main
from repro.model.schedules import T_INIT
from repro.obs.export import read_jsonl
from repro.obs.tracer import BEGIN, END, INSTANT, TraceEvent


def ev(name, track="engine", ph=INSTANT, ts=0, **args):
    cat = "txn" if name.startswith("txn.") else "epoch"
    return TraceEvent(ts, ph, cat, name, track, args)


def rd(entity, pos, writer):
    """One read op of a commit record: the version at ``pos`` (None:
    the initial version), installed by ``writer``."""
    return (entity, pos, writer)


def wr(entity, pos):
    """One write op of a commit record: ``entity`` installed at ``pos``."""
    return (entity, pos)


def commit(txn, *ops, seq=0, track="engine"):
    """``txn.commit`` carrying ``ops`` (from :func:`rd`/:func:`wr`) in
    step order."""
    return ev("txn.commit", track=track, txn=txn, seq=seq, ops=list(ops))


def abort(txn, *installed, seq=0, track="engine"):
    """``txn.abort`` of an attempt that installed ``installed``."""
    return ev("txn.abort", track=track, txn=txn, seq=seq,
              reason="rejected", installed=list(installed))


def close(track="engine"):
    return ev("epoch.close", track=track)


#: a one-event trace in the format written before commits carried the
#: data: meta header, then a per-step write.
OLD_FORMAT_TRACE = (
    '{"meta":"trace","events":1,"dropped":0}\n'
    '{"ts":1,"ph":"I","cat":"data","name":"txn.write","track":"engine",'
    '"args":{"entity":"acct0","pos":0,"seq":0,"txn":"t1"}}\n'
)


def fold(events):
    rec = ScheduleReconstructor()
    for event in events:
        rec.feed(event)
    return rec.finish()


class TestFolding:
    def test_one_clean_segment(self):
        segs = fold([
            commit("a", wr("x", 1)),
            commit("b", rd("x", 1, "a")),
            close(),
        ])
        assert len(segs) == 1
        seg = segs[0]
        assert not seg.violations
        assert [str(s) for s in seg.schedule] == ["Wa(x)", "Rb(x)"]
        assert seg.read_sources == {1: "a"}
        assert seg.committed == ("a", "b")

    def test_initial_version_reads_pin_t_init(self):
        segs = fold([
            commit("a", rd("x", None, T_INIT)), close(),
        ])
        assert not segs[0].violations
        assert segs[0].read_sources == {0: T_INIT}

    def test_aborted_attempt_leaves_no_ops(self):
        # Attempt 0 of txn "a" installs position 1 and aborts; attempt 1
        # commits.
        segs = fold([
            abort("a", 1, seq=0),
            commit("a", wr("x", 2), seq=1),
            close(),
        ])
        seg = segs[0]
        assert not seg.violations
        assert [str(s) for s in seg.schedule] == ["Wa(x)"]

    def test_ops_keep_step_order_and_json_lists(self):
        # An own read after an own write keeps its place; ops read back
        # from JSONL are lists, not tuples.
        segs = fold([
            commit("a", ["x", 1], ["x", 1, "a"], ["y", None, T_INIT]),
            close(),
        ])
        seg = segs[0]
        assert not seg.violations
        assert [str(s) for s in seg.schedule] == ["Wa(x)", "Ra(x)", "Ra(y)"]
        assert seg.read_sources == {1: "a", 2: T_INIT}

    def test_segments_split_at_epoch_close(self):
        segs = fold([
            commit("a", wr("x", 1)), close(),
            commit("b", rd("x", 1, "a")), close(),
        ])
        assert [s.index for s in segs] == [0, 1]
        # The cross-epoch read folds to the segment's initial state.
        assert segs[1].read_sources == {0: T_INIT}
        assert not segs[0].violations and not segs[1].violations

    def test_settle_batch_end_delimits_planner_tracks(self):
        segs = fold([
            ev("settle.batch", track="driver", ph=BEGIN),
            commit("a", wr("x", 1), track="driver"),
            ev("settle.batch", track="driver", ph=END),
        ])
        assert len(segs) == 1
        assert segs[0].track == "driver"

    def test_tracks_fold_independently(self):
        segs = fold([
            commit("a", wr("x", 1), track="shard-0"),
            commit("b", wr("y", 1), track="shard-1"),
            close("shard-0"), close("shard-1"),
        ])
        assert {s.track for s in segs} == {"shard-0", "shard-1"}
        assert all(not s.violations for s in segs)

    def test_lifecycle_only_stretch_reconstructs_to_nothing(self):
        segs = fold([commit("a"), close()])
        assert segs == []

    def test_a_live_fold_keeps_no_commit_without_data(self, tmp_path):
        """A ``parallel`` run's ``driver`` track carries a commit record
        per transaction, without ops, and no delimiter ever closes it.
        Folded live, it keeps none of them: memory stays at one open
        segment per track, not the run.  The run is ``same_answers.py``'s
        ``parallel.mvto.sharded-2pc-shape``."""
        path = tmp_path / "run.trace.jsonl"
        assert main([
            "run", "--mode", "parallel", "--scheduler", "mvto",
            "--scenario", "sharded-bank", "--workers", "2",
            "--batch-size", "8", "--cross-fraction", "0.1",
            "--max-retries", "64", "--deterministic", "--seed", "7",
            "--txns", "300", "--trace", str(path),
        ]) == 0
        _meta, events = read_jsonl(str(path))
        rec = ScheduleReconstructor()
        for event in events:
            rec.feed(event)
        assert sum(
            e.track == "driver" and e.name == "txn.commit" for e in events
        ) == 300
        assert rec._tracks["driver"].commits == []
        assert rec.finish() and not any(s.violations for s in rec.segments)

    def test_finish_flushes_residual_segment_and_is_idempotent(self):
        rec = ScheduleReconstructor()
        rec.feed(commit("a", wr("x", 1)))
        assert rec.finish() == rec.finish()
        assert len(rec.segments) == 1

    def test_on_segment_fires_at_every_close(self):
        seen = []
        rec = ScheduleReconstructor(on_segment=seen.append)
        for event in [commit("a", wr("x", 1)), close(),
                      commit("b", wr("x", 2)), close()]:
            rec.feed(event)
        assert [s.index for s in seen] == [0, 1]


class TestAuditEvents:
    def test_empty_stream_is_ok(self):
        report = audit_events([])
        assert report.ok
        assert report.segments == 0

    def test_clean_stream_certifies(self):
        report = audit_events([
            commit("a", wr("x", 1)),
            commit("b", rd("x", 1, "a")), close(),
        ])
        assert report.ok
        assert report.certified == 1
        assert report.reads == 1 and report.writes == 1

    def test_dropped_refuses_without_feeding(self):
        report = audit_events([commit("a", wr("x", 1))], dropped=3)
        assert not report.ok
        assert [v.code for v in report.violations] == ["trace-dropped"]
        assert report.segments == 0


class TestOldTraces:
    """A per-step data event belongs to a trace written before commits
    carried the data; folded as a lifecycle event it would leave every
    segment empty and the audit ``ok``."""

    @pytest.mark.parametrize("name", ["txn.read", "txn.write"])
    def test_per_step_data_event_is_refused(self, name):
        old = ev(name, txn="a", seq=0, entity="x", pos=1, writer="a")
        with pytest.raises(ValueError, match="predates commit-carried"):
            audit_events([commit("a", wr("x", 1)), old, close()])

    def test_old_format_file_is_refused(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text(OLD_FORMAT_TRACE)
        with pytest.raises(ValueError, match="predates commit-carried"):
            audit_file(str(path))
