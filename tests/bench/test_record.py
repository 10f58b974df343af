"""BenchRecord: schema, provenance, byte-stability, round-trip."""

import json
import pathlib

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    get_suite,
    load_document,
    make_record,
    run_case,
    run_suite,
    suite_document,
    write_document,
)

SMOKE = get_suite("smoke")
BASELINE = (
    pathlib.Path(__file__).parents[2] / "benchmarks/baselines/smoke.json"
)
SERIAL = SMOKE.case("bank/serial")

#: the contract: every record carries exactly these keys, in order.
RECORD_KEYS = [
    "schema", "suite", "case", "scenario", "txns", "deterministic",
    "config", "report", "latency", "throughput", "telemetry",
    "provenance",
]


class TestMakeRecord:
    def test_record_shape(self):
        record = make_record("smoke", run_case(SERIAL, txns=24))
        assert list(record) == RECORD_KEYS
        assert record["schema"] == SCHEMA_VERSION
        assert record["case"] == "bank/serial"
        assert record["scenario"]["name"] == "bank"
        assert record["txns"] == 24
        assert record["deterministic"] is True
        assert record["config"]["mode"] == "serial"
        # The guaranteed report schema and the p50/p95/p99 percentiles.
        assert record["report"]["committed"] > 0
        for key in ("p50", "p95", "p99"):
            assert key in record["latency"]
        # One run per case: the v1 aggregate fields are that one value.
        tp = record["throughput"]
        assert tp["unit"] == "txn/tick" and tp["cv"] == 0.0
        assert tp["median"] == tp["min"] == tp["max"] > 0

    def test_provenance_fields(self):
        record = make_record(
            "smoke", run_case(SERIAL, txns=16), sha="abc123",
        )
        prov = record["provenance"]
        assert prov["git_sha"] == "abc123"
        assert prov["seed"] == 11
        # One run per case: the v1 repeat fields are constants.
        assert prov["repeats"] == 1
        assert prov["warmup"] == 0
        assert prov["python"] and prov["platform"]

    def test_equal_seed_deterministic_records_are_byte_identical(self):
        first = make_record("smoke", run_case(SERIAL, txns=24), sha="x")
        again = make_record("smoke", run_case(SERIAL, txns=24), sha="x")
        assert json.dumps(first) == json.dumps(again)

    def test_every_smoke_case_is_byte_stable(self):
        # All four execution modes honour the determinism contract at
        # the record level — what `repro bench run` relies on.
        for case in SMOKE.cases:
            first = make_record(
                "smoke", run_case(case, txns=12), sha="x"
            )
            again = make_record(
                "smoke", run_case(case, txns=12), sha="x"
            )
            assert json.dumps(first) == json.dumps(again), case.case_id


class TestCommittedBaseline:
    def test_smoke_records_equal_the_committed_baseline(self):
        # The baseline was written by the repeats/warmup-era runner;
        # the one-run harness reproduces every record of it, down to
        # the aggregate and repeat fields, wherever it runs.
        baseline = load_document(BASELINE)

        def portable(document):
            records = json.loads(json.dumps(document["records"]))
            for record in records:
                for key in ("python", "platform", "git_sha"):
                    del record["provenance"][key]
            return json.dumps(records, indent=2)

        candidate = suite_document("smoke", run_suite(SMOKE))
        assert portable(candidate) == portable(baseline)


class TestDocumentRoundTrip:
    def test_write_then_load(self, tmp_path):
        document = suite_document(
            "smoke", run_suite(SMOKE, txns=12)
        )
        path = write_document(document, tmp_path / "BENCH_smoke.json")
        loaded = load_document(path)
        assert loaded == document
        # Stable serialization: construction order, trailing newline.
        text = path.read_text()
        assert text.endswith("}\n")
        assert json.dumps(document, indent=2) + "\n" == text

    def test_missing_file_is_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="no bench document"):
            load_document(tmp_path / "absent.json")

    def test_non_json_is_value_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json {")
        with pytest.raises(ValueError, match="not JSON"):
            load_document(path)

    def test_foreign_schema_is_value_error(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": "v0", "records": []}))
        with pytest.raises(ValueError, match="schema 'v0'"):
            load_document(path)

    def test_missing_records_is_value_error(self, tmp_path):
        path = tmp_path / "norecords.json"
        path.write_text(json.dumps({"schema": SCHEMA_VERSION}))
        with pytest.raises(ValueError, match="records"):
            load_document(path)
