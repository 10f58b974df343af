"""The linter turned on its own repository — the CI gate, as a test.

Two claims, each pinned:

* the committed tree lints clean — zero findings, nothing
  grandfathered (reasoned ``lint-ignore`` pragmas are the one waiver);
  and
* the rules would catch a regression: stripping a hand-placed
  ``sorted(...)`` out of the engine, or emitting an undocumented event
  name, is flagged by the named rule on a forged copy of the real
  source.
"""

from repro.lint import get_rule, lint_paths, lint_sources
from repro.lint.context import ModuleContext

ENGINE = "src/repro/engine/engine.py"


def read(repo_root, relative):
    return (repo_root / relative).read_text(encoding="utf-8")


class TestRepoIsClean:
    def test_src_lints_clean(self, repo_root):
        report = lint_paths([str(repo_root / "src")])
        assert report.findings == [], report.format()
        assert report.ok

    def test_every_suppression_in_src_carries_a_reason(self, repo_root):
        from repro.lint import collect_files

        for absolute, display in collect_files([str(repo_root / "src")]):
            with open(absolute, encoding="utf-8") as source:
                ctx = ModuleContext.from_source(display, source.read())
            for pragma in ctx.pragmas.values():
                assert pragma.reason, f"{display}:{pragma.line}"
            assert not ctx.pragma_findings, ctx.pragma_findings


class TestForgedRegressions:
    def test_stripping_sorted_from_engine_doom_is_flagged(self, repo_root):
        source = read(repo_root, ENGINE)
        forged = source.replace(
            "for attempt in sorted(doomed, key=lambda a: a.seq):",
            "for attempt in doomed:",
        )
        assert forged != source  # the fixture still matches the tree
        report = lint_sources([(ENGINE, forged)], select=["D101"])
        assert [f.rule_id for f in report.findings] == ["D101"]

    def test_stripping_sorted_from_finalize_ready_is_flagged(
        self, repo_root
    ):
        source = read(repo_root, ENGINE)
        forged = source.replace(
            "for attempt in sorted(self._pending, key=lambda a: a.seq)",
            "for attempt in self._pending",
        )
        assert forged != source
        report = lint_sources([(ENGINE, forged)], select=["D101"])
        assert [f.rule_id for f in report.findings] == ["D101"]

    def test_undocumented_emit_name_in_engine_is_flagged(self, repo_root):
        source = read(repo_root, ENGINE)
        forged = source.replace('"txn.commit"', '"txn.committed-ok"')
        assert forged != source
        report = lint_sources([(ENGINE, forged)], select=["O302"])
        assert {f.rule_id for f in report.findings} == {"O302"}

    def test_raw_wall_clock_in_engine_is_flagged(self, repo_root):
        source = read(repo_root, ENGINE)
        forged = source + (
            "\n\ndef _elapsed():\n"
            "    import time\n"
            "    return time.perf_counter()\n"
        )
        report = lint_sources([(ENGINE, forged)], select=["D102"])
        assert [f.rule_id for f in report.findings] == ["D102"]
