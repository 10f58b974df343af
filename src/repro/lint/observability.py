"""O-rules: trace-taxonomy drift, caught at the emit site.

The canonical event taxonomy lives in :mod:`repro.obs.taxonomy` — the
docs table is rendered from it, the auditor and summary tooling are
written against it.  These rules keep every ``tracer.instant`` /
``begin`` / ``end`` call in the codebase inside that vocabulary:

``O301``
    The event name must be a **string literal**.  A computed name
    cannot be checked against the taxonomy at lint time, and a trace
    full of dynamic names is exactly the drift the taxonomy exists to
    prevent.

``O302``
    The literal must be **in the taxonomy**.  Emitting a new event is
    a one-line edit to ``repro.obs.taxonomy`` (which updates the docs
    table via its pinned render) — this rule makes that edit
    impossible to forget.  The same goes for a telemetry instrument
    created by literal name — ``<…registry>.counter/gauge/histogram(
    "name", …)`` — against the taxonomy's ``INSTRUMENT_NAMES``.

``O303``
    The payload must be **literal keyword arguments** — no ``**``
    expansion, no positional payload.  Dynamic payloads defeat both
    the documented args columns and the exporters' sorted-payload
    byte-stability rule (keys nobody can see at review time feed
    ``sorted_payload`` at run time).

An emit site is any call ``<receiver>.instant/begin/end(...)`` whose
receiver's dotted name ends in ``tracer`` (``tracer``, ``self.tracer``,
``engine.tracer``, ``self._tracer`` …) — the repo-wide hook idiom —
or a call through a name the module bound to such a method.
"""

from __future__ import annotations

import ast

from repro.lint.astutil import expr_key
from repro.lint.context import ModuleContext
from repro.lint.findings import Finding
from repro.lint.registry import LintRule, register_rule
from repro.obs.taxonomy import EVENT_NAMES, INSTRUMENT_NAMES

_EMIT_METHODS = {"instant", "begin", "end"}
_INSTRUMENT_METHODS = {"counter", "gauge", "histogram"}


def _is_method(func: ast.expr, methods: set[str], suffix: str) -> bool:
    """``<receiver>.<method>`` with the receiver's dotted name ending in
    ``suffix`` and the method one of ``methods``."""
    if not (isinstance(func, ast.Attribute) and func.attr in methods):
        return False
    receiver = expr_key(func.value)
    if receiver is None:
        return False
    return receiver.split(".")[-1].rstrip("()").lower().endswith(suffix)


def _name_node(node: ast.Call, position: int) -> ast.expr | None:
    """The ``name`` argument: positional ``position`` or the keyword."""
    if len(node.args) > position:
        return node.args[position]
    for keyword in node.keywords:
        if keyword.arg == "name":
            return keyword.value
    return None


def _event_name_node(node: ast.Call) -> ast.expr | None:
    return _name_node(node, 1)


class _EmitSiteRule(LintRule):
    """Shared traversal: subclasses implement :meth:`check_emit`.

    A name bound to a tracer's emit method (``instant =
    tracer.instant``, hoisted out of a hot loop) is an emit site
    wherever the module calls it.
    """

    def check_module(self, ctx: ModuleContext) -> list[Finding]:
        self._aliases: set[str] = set()
        return super().check_module(ctx)

    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_method(node.value, _EMIT_METHODS, "tracer"):
            self._aliases.update(
                target.id for target in node.targets
                if isinstance(target, ast.Name)
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if _is_method(func, _EMIT_METHODS, "tracer") or (
            isinstance(func, ast.Name) and func.id in self._aliases
        ):
            self.check_emit(node)
        self.generic_visit(node)

    def check_emit(self, node: ast.Call) -> None:
        raise NotImplementedError


@register_rule(
    "O301",
    family="observability",
    summary="trace event name is not a string literal",
)
class LiteralEventNameRule(_EmitSiteRule):
    def check_emit(self, node: ast.Call) -> None:
        name = _event_name_node(node)
        if name is None:
            self.report(
                node, "trace emit call has no event name argument"
            )
        elif not (
            isinstance(name, ast.Constant) and isinstance(name.value, str)
        ):
            self.report(
                node,
                "trace event name must be a string literal so the "
                "taxonomy check (O302) can see it",
            )


@register_rule(
    "O302",
    family="observability",
    summary="trace event or instrument name missing from the canonical "
    "taxonomy",
)
class TaxonomyEventNameRule(_EmitSiteRule):
    def visit_Call(self, node: ast.Call) -> None:
        if _is_method(node.func, _INSTRUMENT_METHODS, "registry"):
            name = _name_node(node, 0)
            if (
                isinstance(name, ast.Constant)
                and isinstance(name.value, str)
                and name.value not in INSTRUMENT_NAMES
            ):
                self.report(
                    node,
                    f"telemetry instrument {name.value!r} is not in the "
                    "canonical taxonomy; add an InstrumentSpec to "
                    "repro.obs.taxonomy (which also updates the docs "
                    "table)",
                )
        super().visit_Call(node)

    def check_emit(self, node: ast.Call) -> None:
        name = _event_name_node(node)
        if (
            isinstance(name, ast.Constant)
            and isinstance(name.value, str)
            and name.value not in EVENT_NAMES
        ):
            self.report(
                node,
                f"trace event {name.value!r} is not in the canonical "
                "taxonomy; add an EventSpec to repro.obs.taxonomy "
                "(which also updates the docs table)",
            )


@register_rule(
    "O303",
    family="observability",
    summary="dynamic trace payload (non-literal keywords) at emit site",
)
class LiteralPayloadRule(_EmitSiteRule):
    def check_emit(self, node: ast.Call) -> None:
        if any(keyword.arg is None for keyword in node.keywords):
            self.report(
                node,
                "trace payload must be literal keyword arguments; a "
                "**-expanded payload hides its keys from review and "
                "from the documented args columns",
            )
        if any(isinstance(arg, ast.Starred) for arg in node.args):
            self.report(
                node,
                "trace emit call must not *-expand positional "
                "arguments",
            )


__all__ = [
    "LiteralEventNameRule",
    "LiteralPayloadRule",
    "TaxonomyEventNameRule",
]
