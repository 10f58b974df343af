"""The lint runner: files in, :class:`LintReport` out.

Deterministic by construction — modules are linted in sorted display-
path order, findings sort by location, and the report's JSON has
fixed key order — so ``repro lint --json`` output is byte-identical
across runs on the same tree (the same contract every other record in
this repo honors, and the contract the linter itself polices).

Two entry points: :func:`lint_paths` walks real files (the CLI);
:func:`lint_sources` takes ``(display_path, source)`` pairs directly,
which is how the tests forge rule violations into synthetic modules
without touching disk.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

from repro.lint.context import ModuleContext
from repro.lint.findings import META_RULES, Finding, LintReport
from repro.lint.registry import get_rule, rule_ids


def _resolve_rules(
    select: Sequence[str] | None, ignore: Sequence[str] | None
) -> list[str]:
    """The rule ids to run; unknown ids fail listing the valid ones."""
    for rule_id in list(select or []) + list(ignore or []):
        get_rule(rule_id)  # raises ValueError with the registered list
    chosen = list(select) if select else rule_ids()
    ignored = set(ignore or [])
    return [rule_id for rule_id in chosen if rule_id not in ignored]


def collect_files(paths: Iterable[str]) -> list[tuple[str, str]]:
    """``(absolute, display)`` for every ``.py`` under ``paths``.

    Directories are walked recursively (``__pycache__`` skipped);
    display paths are relative to the working directory when possible,
    so reports are stable across checkouts.
    """
    cwd = os.getcwd()
    found: dict[str, str] = {}

    def display(path: str) -> str:
        absolute = os.path.abspath(path)
        try:
            relative = os.path.relpath(absolute, cwd)
        except ValueError:  # different drive (windows)
            return absolute.replace(os.sep, "/")
        if relative.startswith(".."):
            return absolute.replace(os.sep, "/")
        return relative.replace(os.sep, "/")

    for path in paths:
        if os.path.isfile(path):
            found[os.path.abspath(path)] = display(path)
        elif os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs if d != "__pycache__"
                )
                for name in sorted(files):
                    if name.endswith(".py"):
                        full = os.path.join(root, name)
                        found[os.path.abspath(full)] = display(full)
        else:
            raise ValueError(f"no such file or directory: {path!r}")
    return sorted(found.items(), key=lambda item: item[1])


def lint_sources(
    sources: Iterable[tuple[str, str]],
    *,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> LintReport:
    """Lint ``(display_path, source_text)`` pairs."""
    chosen = _resolve_rules(select, ignore)
    rules = [get_rule(rule_id).factory() for rule_id in chosen]
    known = set(rule_ids()) | set(META_RULES)

    findings: list[Finding] = []
    suppressed = 0
    files = 0
    for display, text in sorted(sources, key=lambda item: item[0]):
        files += 1
        ctx = ModuleContext.from_source(display, text)
        module_findings: list[Finding] = []
        for rule in rules:
            module_findings.extend(rule.check_module(ctx))
        for finding in module_findings:
            if ctx.suppresses(finding.rule_id, finding.line):
                suppressed += 1
            else:
                findings.append(finding)
        # pragma hygiene: always on, never suppressible.
        findings.extend(ctx.pragma_findings)
        for line, pragma in sorted(ctx.pragmas.items()):
            for rule_id in pragma.rule_ids:
                if rule_id not in known:
                    findings.append(Finding(
                        display, line, "P002",
                        f"lint-ignore names unknown rule {rule_id!r}; "
                        f"registered: {rule_ids()}",
                    ))
    for rule in rules:
        findings.extend(rule.finalize())
    return LintReport(
        findings, files=files, rules=chosen, suppressed=suppressed
    )


def lint_paths(
    paths: Iterable[str],
    *,
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
) -> LintReport:
    """Lint every ``.py`` file under ``paths`` (the CLI entry point)."""
    named: list[tuple[str, str]] = []
    for absolute, display in collect_files(paths):
        with open(absolute, "r", encoding="utf-8") as source:
            named.append((display, source.read()))
    return lint_sources(named, select=select, ignore=ignore)


__all__ = ["collect_files", "lint_paths", "lint_sources"]
