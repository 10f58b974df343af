"""The rule registry: extension in one registration, validation on entry."""

import ast

import pytest

from repro.lint import (
    LintRule,
    get_rule,
    lint_sources,
    register_rule,
    rule_ids,
    rule_specs,
    unregister_rule,
)


class TestExtension:
    def test_third_party_rule_plugs_in_with_one_registration(self):
        # the whole extension story: subclass, decorate, done — the
        # runner picks the rule up exactly like backends and scenarios.
        @register_rule(
            "X901", family="style", summary="no TODO-named functions"
        )
        class NoTodoFunctions(LintRule):
            def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
                if "todo" in node.name.lower():
                    self.report(node, "name the function after its job")
                self.generic_visit(node)

        try:
            assert "X901" in rule_ids()
            report = lint_sources(
                [("mod.py", "def todo_later():\n    pass\n")],
                select=["X901"],
            )
            assert [f.rule_id for f in report.findings] == ["X901"]
            spec = get_rule("X901")
            assert spec.family == "style"
        finally:
            unregister_rule("X901")
        assert "X901" not in rule_ids()

    def test_specs_expose_family_and_summary(self):
        by_family = {}
        for spec in rule_specs():
            by_family.setdefault(spec.family, []).append(spec.rule_id)
        assert by_family == {
            "determinism": ["D101", "D102", "D103"],
            "observability": ["O301", "O302", "O303"],
        }


class TestValidation:
    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            @register_rule(
                "D101", family="determinism", summary="imposter"
            )
            class Imposter(LintRule):
                pass

    def test_malformed_rule_id_rejected(self):
        with pytest.raises(ValueError, match="rule id"):
            @register_rule("lowercase-9", family="x", summary="y")
            class BadId(LintRule):
                pass

    def test_meta_rule_ids_are_reserved(self):
        with pytest.raises(ValueError, match="reserved"):
            @register_rule("P001", family="meta", summary="collides")
            class Reserved(LintRule):
                pass

    def test_non_rule_class_rejected(self):
        with pytest.raises(ValueError, match="LintRule"):
            register_rule("X902", family="x", summary="y")(object)

    def test_unknown_rule_lookup_lists_registered(self):
        with pytest.raises(ValueError) as excinfo:
            get_rule("Z999")
        assert "D101" in str(excinfo.value)
