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
            wr("a", "x", 1), commit("a"),
            rd("b", "x", 1, "z"),  # claims z; position 1 belongs to a
            commit("b"), close(),
        ])
        assert codes(report) == ["read-from-mismatch"]

    def test_missing_write(self):
        report = audit_events([
            rd("b", "x", 7, "a"),  # nothing ever installed position 7
            commit("b"), close(),
        ])
        assert codes(report) == ["missing-write"]

    def test_commit_order_reader_before_source(self):
        report = audit_events([
            wr("a", "x", 1),
            rd("b", "x", 1, "a"),
            commit("b"), commit("a"),  # reader commits first: forbidden
            close(),
        ])
        assert codes(report) == ["commit-order"]

    def test_read_from_aborted(self):
        report = audit_events([
            wr("a", "x", 1, seq=0), abort("a", seq=0),
            rd("b", "x", 1, "a"), commit("b"),
            close(),
        ])
        assert codes(report) == ["read-from-aborted"]

    def test_unresolved_attempt(self):
        report = audit_events([
            wr("a", "x", 1),  # neither commit nor abort follows
            close(),
        ])
        assert codes(report) == ["unresolved-attempt"]

    def test_duplicate_position(self):
        report = audit_events([
            wr("a", "x", 1), commit("a"),
            wr("b", "x", 1), commit("b"),  # same chain position twice
            close(),
        ])
        assert "duplicate-position" in codes(report)

    def test_chain_regression(self):
        report = audit_events([
            wr("a", "x", 5), commit("a"),
            wr("b", "y", 3), commit("b"),  # installs went backwards
            close(),
        ])
        assert codes(report) == ["chain-regression"]

    def test_stale_base_read(self):
        report = audit_events([
            wr("a", "x", 1), commit("a"),
            wr("b", "x", 2), commit("b"), close(),
            rd("c", "x", 1, "a"),  # bypasses the newer position 2
            commit("c"), close(),
        ])
        assert codes(report) == ["stale-base-read"]

    def test_not_serializable_write_skew(self):
        # The classic write-skew shape: each txn reads the initial
        # version of what the other wrote.  Structurally consistent,
        # but no serial order serves both pinned reads.
        report = audit_events([
            rd("a", "x", None, T_INIT),
            rd("b", "y", None, T_INIT),
            wr("a", "y", 1), wr("b", "x", 2),
            commit("a"), commit("b"), close(),
        ])
        assert codes(report) == ["not-serializable"]
        assert report.certified == 0

    def test_not_serializable_snapshot_write_skew(self):
        # Write skew as snapshot isolation produces it: both reads come
        # after both writes and are pinned to the initial versions.  In
        # the commit order each write is installed before the other
        # transaction's read, so only the pin comparison rejects it.
        report = audit_events([
            wr("a", "y", 1), wr("b", "x", 2),
            rd("a", "x", None, T_INIT), rd("b", "y", None, T_INIT),
            commit("a"), commit("b"), close(),
        ])
        assert codes(report) == ["not-serializable"]
        assert report.tiers == {"replay": 0, "graph": 0, "search": 1}

    def test_not_serializable_source_installs_after_the_read(self):
        # The read of y names a position a installed for x, so its pin
        # is a; a writes y only after the read.  The commit order puts
        # a's write of y last before b, so only the install-order
        # check rejects it, and no serial order can serve the pin.
        report = audit_events([
            wr("a", "x", 1), rd("b", "y", 1, "a"), wr("a", "y", 2),
            commit("a"), commit("b"), close(),
        ])
        assert codes(report) == ["not-serializable"]
        assert report.tiers == {"replay": 0, "graph": 0, "search": 1}

    def test_trace_dropped_voids_everything(self):
        report = audit_events(
            [wr("a", "x", 1), commit("a"), close()], dropped=1
        )
        assert codes(report) == ["trace-dropped"]

    def test_violated_segment_is_not_certified(self):
        report = audit_events([
            rd("b", "x", 7, "a"), commit("b"), close(),  # broken
            wr("c", "y", 1), commit("c"), close(),       # clean
        ])
        assert not report.ok
        assert report.segments == 2
        assert report.certified == 1


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
        for i, line in enumerate(lines):
            record = json.loads(line)
            if (record.get("name") == "txn.read"
                    and record["args"].get("pos") is not None):
                record["args"]["writer"] = "t9999"
                lines[i] = json.dumps(record)
                break
        else:
            pytest.fail("no in-segment read to forge")
        report = self._audit_mutated(tmp_path, lines)
        assert not report.ok
        assert "read-from-mismatch" in codes(report)

    def test_deleted_write_event(self, tmp_path, trace_lines):
        read_pos = {
            json.loads(l)["args"]["pos"]
            for l in trace_lines
            if json.loads(l).get("name") == "txn.read"
            and json.loads(l)["args"].get("pos") is not None
        }
        for i, line in enumerate(trace_lines):
            record = json.loads(line)
            if (record.get("name") == "txn.write"
                    and record["args"]["pos"] in read_pos):
                lines = trace_lines[:i] + trace_lines[i + 1:]
                break
        else:
            pytest.fail("no write that is later read")
        report = self._audit_mutated(tmp_path, lines)
        assert not report.ok
        assert "missing-write" in codes(report)

    def test_reordered_commits(self, tmp_path, trace_lines):
        # Swap the commit events of a reads-from pair: the reader now
        # commits before its source — the flush rule is violated.
        lines = list(trace_lines)
        reads = {}
        writer_of = {}
        for line in lines:
            record = json.loads(line)
            if record.get("name") == "txn.write":
                writer_of[record["args"]["pos"]] = record["args"]["txn"]
            if (record.get("name") == "txn.read"
                    and record["args"].get("pos") in writer_of):
                source = writer_of[record["args"]["pos"]]
                if source != record["args"]["txn"]:
                    reads[record["args"]["txn"]] = source
        commit_line = {
            json.loads(l)["args"]["txn"]: i
            for i, l in enumerate(lines)
            if json.loads(l).get("name") == "txn.commit"
        }
        for reader, source in reads.items():
            i, j = commit_line.get(source), commit_line.get(reader)
            if i is not None and j is not None and i < j:
                lines[i], lines[j] = lines[j], lines[i]
                break
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

    def test_non_trace_file_is_value_error(self, tmp_path):
        path = tmp_path / "not-a-trace.jsonl"
        path.write_text("{}\n")
        with pytest.raises(ValueError):
            audit_file(str(path))
