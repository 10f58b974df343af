"""Auditing re-bound schedules: certification and forgery.

The planner family commits readers of logic-aborted writers by
re-binding their reads to the next version down the chain during
execution (:meth:`repro.planner.executor.PlanExecutor._rebind`).  The
auditor must hold those runs to the same standard as any other: a traced
run certifies 1-SR only because every committed read cites the version
it *actually* used after re-binding — so a forged trace where a re-bound
read still cites its removed source must be flagged, never certified.

Negative half: synthetic and mutated traces of the re-bind shape.
Positive half: real abort-heavy runs through both abort-free modes
certify, and equal seeds certify byte-identically.
"""

import json

import pytest

from repro.audit import audit_events, audit_file
from repro.db import Database, RunConfig
from repro.obs import Tracer
from repro.planner.executor import PlanExecutor

from tests.audit.test_clean_runs import run_audited
from tests.audit.test_reconstruct import abort, close, commit, rd, wr


def codes(report):
    return sorted({v.code for v in report.violations})


def run_traced(mode, *, seed=3, txns=80, path=None):
    tracer = Tracer(capacity=None) if path is None else str(path)
    config = RunConfig(
        mode=mode, workers=2, batch_size=8, deterministic=True,
        seed=seed, trace=tracer,
    )
    report = Database().run(
        "abort-heavy", config, txns=txns, abort_fraction=0.3
    )
    return report, tracer


class TestForgedReexecTraces:
    """The negative half: re-bind shapes that must not certify."""

    def test_rebound_read_citing_removed_source(self):
        # The honest story: "a" writes x@1 and logic-aborts; "b" is
        # re-bound to the initial version and commits.  The forged
        # trace claims "b" still read the removed write — position 1
        # no longer exists, so the read's source is missing.
        report = audit_events([
            abort("a", 1),
            commit("b", rd("x", 1, "a")),
            close(),
        ])
        assert not report.ok
        assert codes(report) == ["read-from-aborted"]

    def test_rebound_read_citing_stale_writer(self):
        # Here the re-bound read cites the *surviving* position but
        # still names the aborted transaction as its writer — a
        # re-binding that updated the slot but not the source label.
        report = audit_events([
            commit("c", wr("x", 1)),
            abort("a", 2, seq=0),
            commit("b", rd("x", 1, "a")),
            close(),
        ])
        assert not report.ok
        assert "read-from-mismatch" in codes(report)

    def test_mutated_real_reexec_trace(self, tmp_path, monkeypatch):
        """Take a run with genuine read-time re-binds and forge one
        re-bound reader's read back to an aborted writer: the audit must
        flag it."""
        reexecuted = set()
        rebind = PlanExecutor._rebind

        def recording(self, ptxn, *args):
            reexecuted.add(str(ptxn.txn))
            return rebind(self, ptxn, *args)

        monkeypatch.setattr(PlanExecutor, "_rebind", recording)
        path = tmp_path / "reexec.jsonl"
        report, _ = run_traced("planner", path=path)
        assert report.invariant_ok
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert reexecuted, "run produced no re-binds"
        aborted = {
            r["args"]["txn"] for r in records
            if r.get("name") == "txn.abort"
        }
        for i, record in enumerate(records):
            reads = [
                op for op in record.get("args", {}).get("ops", ())
                if len(op) == 3 and op[1] is not None
            ]
            if (record.get("name") == "txn.commit"
                    and record["args"]["txn"] in reexecuted and reads):
                reads[0][2] = sorted(aborted)[0]
                lines[i] = json.dumps(record)
                break
        else:
            pytest.fail("no in-batch read by a re-bound txn to forge")
        forged = tmp_path / "forged.jsonl"
        forged.write_text("\n".join(lines) + "\n")
        audit = audit_file(str(forged))
        assert not audit.ok
        assert set(codes(audit)) & {
            "read-from-mismatch", "read-from-aborted"
        }

    def test_untouched_reexec_trace_certifies(self, tmp_path):
        path = tmp_path / "clean.jsonl"
        report, _ = run_traced("pipelined", path=path)
        assert report.invariant_ok
        audit = audit_file(str(path))
        assert audit.ok, audit.format()
        assert audit.certified == audit.segments > 0


class TestReexecRunsCertify:
    """The positive half: re-bound runs pass continuous audit."""

    @pytest.mark.parametrize("mode", ["planner", "pipelined"])
    def test_abort_heavy_certifies_1sr(self, mode):
        report = run_audited(
            mode, "abort-heavy", txns=80, batch_size=8,
        )
        audit = report.audit
        assert audit is not None and audit.ok, audit.format()
        assert audit.violations == ()
        assert report.mode_specific["logic_aborted"] > 0
        assert report.cc_aborts == 0

    @pytest.mark.parametrize("mode", ["planner", "pipelined"])
    def test_equal_seeds_certify_byte_identically(self, mode):
        first = run_audited(mode, "abort-heavy", seed=11, batch_size=8)
        second = run_audited(mode, "abort-heavy", seed=11, batch_size=8)
        assert first.audit.as_json() == second.audit.as_json()
        assert json.dumps(first.as_dict()) == json.dumps(second.as_dict())
