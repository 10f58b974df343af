"""The canonical event taxonomy: one module, three pinned readers."""

import ast
import pathlib

import pytest

from repro.obs import MetricsRegistry
from repro.obs.taxonomy import (
    EVENT_NAMES,
    EVENTS,
    INSTRUMENT_NAMES,
    INSTRUMENTS,
    EventSpec,
    InstrumentSpec,
    get_event,
    instruments_markdown_table,
    markdown_table,
)

REPO = pathlib.Path(__file__).resolve().parents[2]


class TestSpecs:
    def test_names_are_unique(self):
        names = [spec.name for spec in EVENTS]
        assert len(names) == len(set(names))
        assert EVENT_NAMES == frozenset(names)

    def test_kinds_are_validated(self):
        with pytest.raises(ValueError, match="kind"):
            EventSpec("x.y", "blip", "", "nobody", "nothing")

    def test_get_event_round_trips(self):
        assert get_event("txn.commit").kind == "instant"
        assert get_event("2pc.flush").kind == "span"

    def test_get_event_unknown_lists_known(self):
        with pytest.raises(ValueError, match="known"):
            get_event("txn.bogus")


class TestDocsRender:
    def test_published_table_is_exactly_the_render(self):
        # the markdown in docs/observability.md is a *render* of the
        # module, never a second copy of the facts.
        docs = (REPO / "docs" / "observability.md").read_text(
            encoding="utf-8"
        )
        assert markdown_table() in docs

    def test_table_has_one_row_per_event(self):
        lines = markdown_table().splitlines()
        assert lines[0] == "| event | kind | emitted by | args |"
        assert len(lines) == 2 + len(EVENTS)


class TestInstruments:
    def test_names_are_unique_and_kinds_validated(self):
        assert len(INSTRUMENT_NAMES) == len(INSTRUMENTS)
        with pytest.raises(ValueError, match="kind"):
            InstrumentSpec("x.y", "meter", "nothing")

    def test_published_table_is_exactly_the_render(self):
        docs = (REPO / "docs" / "observability.md").read_text(
            encoding="utf-8"
        )
        assert instruments_markdown_table() in docs

    def test_the_audit_report_registers_exactly_the_declared_ones(self):
        from repro.audit import audit_events

        registry = MetricsRegistry()
        audit_events([]).register_into(registry)
        assert set(registry.names()) == INSTRUMENT_NAMES
        view = registry.as_dict()
        for spec in INSTRUMENTS:
            assert spec.name in view[f"{spec.kind}s"]


class TestCoverage:
    def emitted_literals(self):
        """Every literal event name at a tracer emit site in src."""
        names = set()
        for path in sorted((REPO / "src").rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("instant", "begin", "end")
                ):
                    continue
                receiver = node.func.value
                if not (
                    (isinstance(receiver, ast.Attribute)
                     and receiver.attr == "tracer")
                    or (isinstance(receiver, ast.Name)
                        and receiver.id == "tracer")
                ):
                    continue
                if len(node.args) > 1 and isinstance(
                    node.args[1], ast.Constant
                ):
                    names.add(node.args[1].value)
        return names

    def test_every_emitted_name_is_documented(self):
        emitted = self.emitted_literals()
        assert emitted, "no emit sites found — the scan regressed"
        assert emitted <= EVENT_NAMES

    def test_every_documented_instant_or_span_can_be_emitted(self):
        # the converse drift: taxonomy rows nothing emits anymore.
        # Span names are emitted via begin *and* end; one sighting is
        # enough.
        emitted = self.emitted_literals()
        assert EVENT_NAMES <= emitted
