"""The linter turned on its own repository — the CI gate, as a test.

Three claims, each pinned:

* the committed tree lints clean — zero findings, nothing
  grandfathered (reasoned ``lint-ignore`` pragmas are the one waiver);
* the rules would catch a regression: stripping a hand-placed
  ``sorted(...)`` out of the engine, or emitting an undocumented event
  name, is flagged by the named rule on a forged copy of the real
  source; and
* the static lock-acquisition-order graph over the concurrent
  subsystems is acyclic — trivially so, because the committed design
  (worker confinement: every task runs under its own shard's one lock)
  never lexically nests two distinct locks at all.
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
            "for attempt in sorted(self._pending, key=lambda a: a.seq):",
            "for attempt in self._pending:",
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


class TestLockOrderGraph:
    CONCURRENT_TREES = ("src/repro/runtime", "src/repro/storage",
                       "src/repro/planner")

    def run_rule(self, repo_root):
        from repro.lint import collect_files

        rule = get_rule("C201").factory()
        paths = [str(repo_root / tree) for tree in self.CONCURRENT_TREES]
        for absolute, display in collect_files(paths):
            with open(absolute, encoding="utf-8") as source:
                rule.check_module(
                    ModuleContext.from_source(display, source.read())
                )
        return rule

    def test_committed_tree_is_acyclic(self, repo_root):
        rule = self.run_rule(repo_root)
        assert rule.finalize() == []
        # stronger than acyclic: the committed design never lexically
        # holds two distinct locks at once (a worker task takes its own
        # shard's lock and no other).
        assert rule.edges == {}

    def test_rule_would_catch_an_introduced_cycle(self, repo_root):
        rule = self.run_rule(repo_root)
        # forge an inversion.
        forged = (
            "def grab(a_lock, b_lock):\n"
            "    with a_lock:\n"
            "        with b_lock:\n"
            "            pass\n"
            "def grab_reversed(a_lock, b_lock):\n"
            "    with b_lock:\n"
            "        with a_lock:\n"
            "            pass\n"
        )
        rule.check_module(
            ModuleContext.from_source("src/repro/runtime/forged.py", forged)
        )
        findings = rule.finalize()
        assert [f.rule_id for f in findings] == ["C201"]
        assert "cycle" in findings[0].message
