"""Adversarial audits: every forged trace maps to its named violation.

Two layers: synthetic event streams that isolate each violation code
(the :mod:`repro.audit.violations` contract, one test per code), and
real exported traces mutated line-by-line — a forged reads-from edge, a
deleted write, a reordered commit — which ``repro audit`` must flag
rather than certify.
"""

import json

import pytest

from repro.audit import VIOLATION_CODES, Violation, audit_events, audit_file
from repro.db import Database, RunConfig
from repro.model.schedules import T_INIT
from repro.obs import Tracer, write_jsonl

from tests.audit.test_reconstruct import abort, close, commit, ev, rd, wr


def codes(report):
    return sorted({v.code for v in report.violations})


class TestViolationType:
    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="violation code"):
            Violation("no-such-code", "engine", 0, "a", "x")

    def test_as_dict_key_order(self):
        v = Violation("missing-write", "engine", 0, "a", "x")
        assert list(v.as_dict()) == [
            "code", "track", "segment", "txn", "detail",
        ]

    def test_every_code_documents_its_invariant(self):
        assert all(desc for desc in VIOLATION_CODES.values())


class TestSyntheticViolations:
    """One isolated stream per violation code."""

    def test_read_from_mismatch_forged_edge(self):
        report = audit_events([
            commit("a", wr("x", 1)),
            # claims z; position 1 belongs to a
            commit("b", rd("x", 1, "z")),
            close(),
        ])
        assert codes(report) == ["read-from-mismatch"]

    def test_missing_write(self):
        report = audit_events([
            # nothing ever installed position 7
            commit("b", rd("x", 7, "a")),
            close(),
        ])
        assert codes(report) == ["missing-write"]

    def test_commit_order_reader_before_source(self):
        report = audit_events([
            # reader commits first: forbidden.  Its source's write is
            # still found: the join indexes every committed write first.
            commit("b", rd("x", 1, "a")),
            commit("a", wr("x", 1)),
            close(),
        ])
        assert codes(report) == ["commit-order"]

    def test_read_from_aborted(self):
        report = audit_events([
            abort("a", 1, seq=0),
            commit("b", rd("x", 1, "a")),
            close(),
        ])
        assert codes(report) == ["read-from-aborted"]

    def test_duplicate_position(self):
        report = audit_events([
            commit("a", wr("x", 1)),
            commit("b", wr("x", 1)),  # same chain position twice
            close(),
        ])
        assert "duplicate-position" in codes(report)

    def test_chain_regression(self):
        report = audit_events([
            commit("a", wr("x", 5)), close(),
            # installs went below an earlier segment's
            commit("b", wr("y", 3)), close(),
        ])
        assert codes(report) == ["chain-regression"]

    def test_commit_order_is_not_install_order(self):
        # Inside one segment a commit may install below an earlier
        # commit: MVTO commits ``a`` (position 5) before ``b`` (3).
        report = audit_events([
            commit("a", wr("x", 5)),
            commit("b", wr("x", 3)),
            close(),
        ])
        assert report.ok and report.certified == 1

    def test_stale_base_read(self):
        report = audit_events([
            commit("a", wr("x", 1)),
            commit("b", wr("x", 2)), close(),
            commit("c", rd("x", 1, "a")),  # bypasses the newer position 2
            close(),
        ])
        assert codes(report) == ["stale-base-read"]

    def test_not_serializable_write_skew(self):
        # The classic write-skew shape: each txn reads the initial
        # version of what the other wrote.  Structurally consistent,
        # but no serial order serves both pinned reads.
        report = audit_events([
            commit("a", rd("x", None, T_INIT), wr("y", 1)),
            commit("b", rd("y", None, T_INIT), wr("x", 2)),
            close(),
        ])
        assert codes(report) == ["not-serializable"]
        assert report.certified == 0

    def test_not_serializable_snapshot_write_skew(self):
        # Write skew as snapshot isolation produces it: each read comes
        # after its own transaction's write and is pinned to the initial
        # version.  In the commit order a's write is installed before
        # b's read, so only the pin comparison rejects it.
        report = audit_events([
            commit("a", wr("y", 1), rd("x", None, T_INIT)),
            commit("b", wr("x", 2), rd("y", None, T_INIT)),
            close(),
        ])
        assert codes(report) == ["not-serializable"]
        assert report.tiers == {"replay": 0, "graph": 0, "search": 1}

    def test_not_serializable_source_installs_after_the_read(self):
        # a's steps come in two commit records, so the schedule puts b
        # between them.  The read of y names a's write of y, which the
        # second record installs only after the read.  The commit order
        # puts a before b, so only the install-order check rejects it,
        # and no serial order can serve the pin.
        report = audit_events([
            commit("a", wr("x", 1)),
            commit("b", rd("y", 2, "a")),
            commit("a", wr("y", 2)),
            close(),
        ])
        assert codes(report) == ["not-serializable"]
        assert report.tiers == {"replay": 0, "graph": 0, "search": 1}

    def test_trace_dropped_voids_everything(self):
        report = audit_events(
            [commit("a", wr("x", 1)), close()], dropped=1
        )
        assert codes(report) == ["trace-dropped"]

    def test_violated_segment_is_not_certified(self):
        report = audit_events([
            commit("b", rd("x", 7, "a")), close(),  # broken
            commit("c", wr("y", 1)), close(),       # clean
        ])
        assert not report.ok
        assert report.segments == 2
        assert report.certified == 1


def data_commits(lines):
    """``(line index, record)`` of every commit that carries ops."""
    for i, line in enumerate(lines):
        record = json.loads(line)
        if record.get("name") == "txn.commit" and record["args"].get("ops"):
            yield i, record


class TestMutatedRealTraces:
    """Exported traces, hand-mutated one line at a time."""

    @pytest.fixture()
    def trace_lines(self, tmp_path):
        tracer = Tracer(capacity=None)
        config = RunConfig(
            mode="serial", workers=2, seed=3, trace=tracer,
        )
        Database().run("sharded-bank", config, txns=40)
        path = tmp_path / "clean.jsonl"
        write_jsonl(tracer, str(path))
        return path.read_text().splitlines()

    def _audit_mutated(self, tmp_path, lines):
        path = tmp_path / "mutated.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return audit_file(str(path))

    def test_clean_trace_certifies(self, tmp_path, trace_lines):
        report = self._audit_mutated(tmp_path, trace_lines)
        assert report.ok and report.certified > 0

    def test_forged_reads_from_edge(self, tmp_path, trace_lines):
        lines = list(trace_lines)
        for i, record in data_commits(lines):
            forged = [
                op for op in record["args"]["ops"]
                if len(op) == 3 and op[1] is not None
            ]
            if forged:
                forged[0][2] = "t9999"
                lines[i] = json.dumps(record)
                break
        else:
            pytest.fail("no in-segment read to forge")
        report = self._audit_mutated(tmp_path, lines)
        assert not report.ok
        assert "read-from-mismatch" in codes(report)

    def test_deleted_write_event(self, tmp_path, trace_lines):
        read_pos = {
            op[1]
            for _, record in data_commits(trace_lines)
            for op in record["args"]["ops"]
            if len(op) == 3 and op[1] is not None
        }
        lines = list(trace_lines)
        for i, record in data_commits(lines):
            ops = record["args"]["ops"]
            kept = [
                op for op in ops if len(op) == 3 or op[1] not in read_pos
            ]
            if len(kept) < len(ops):
                record["args"]["ops"] = kept
                lines[i] = json.dumps(record)
                break
        else:
            pytest.fail("no write that is later read")
        report = self._audit_mutated(tmp_path, lines)
        assert not report.ok
        assert "missing-write" in codes(report)

    def test_reordered_commits(self, tmp_path, trace_lines):
        # Swap the commit records of a reads-from pair in one segment:
        # the reader now commits before its source — the flush rule is
        # violated.
        lines = list(trace_lines)
        commit_line, installed_by = {}, {}
        for i, line in enumerate(lines):
            record = json.loads(line)
            if record.get("name") == "epoch.close":
                commit_line, installed_by = {}, {}
            if record.get("name") != "txn.commit":
                continue
            txn = record["args"]["txn"]
            sources = {
                installed_by[op[1]]
                for op in record["args"].get("ops", ())
                if len(op) == 3 and op[1] in installed_by
            } - {txn}
            if sources:
                j = commit_line[sources.pop()]
                lines[i], lines[j] = lines[j], lines[i]
                break
            commit_line[txn] = i
            for op in record["args"].get("ops", ()):
                if len(op) == 2:
                    installed_by[op[1]] = txn
        else:
            pytest.fail("no reads-from commit pair to reorder")
        report = self._audit_mutated(tmp_path, lines)
        assert not report.ok
        assert "commit-order" in codes(report)

    def test_forged_drop_count_refuses(self, tmp_path, trace_lines):
        lines = list(trace_lines)
        meta = json.loads(lines[0])
        meta["dropped"] = 5
        lines[0] = json.dumps(meta)
        report = self._audit_mutated(tmp_path, lines)
        assert not report.ok
        assert codes(report) == ["trace-dropped"]

    def test_no_per_step_data_events(self, trace_lines):
        names = {json.loads(line).get("name") for line in trace_lines}
        assert "txn.commit" in names
        assert not names & {"txn.read", "txn.write"}

    def test_non_trace_file_is_value_error(self, tmp_path):
        path = tmp_path / "not-a-trace.jsonl"
        path.write_text("{}\n")
        with pytest.raises(ValueError):
            audit_file(str(path))
