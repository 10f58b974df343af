"""Each built-in rule, forged into synthetic modules.

Every test feeds source text through ``lint_sources`` — the linter
parses, never imports, so nothing here needs to be a real package.
"""

import textwrap

import pytest

from repro.lint import lint_sources

CONTRACT = "# repro: deterministic-contract\n"


def lint_one(source, **kwargs):
    # the contract marker is prepended unindented; dedent the rest.
    if source.startswith(CONTRACT):
        source = CONTRACT + textwrap.dedent(source[len(CONTRACT):])
    else:
        source = textwrap.dedent(source)
    return lint_sources([("mod.py", source)], **kwargs)


def rule_ids_of(report):
    return [f.rule_id for f in report.findings]


class TestD101UnorderedIteration:
    def test_for_over_set_literal_in_contract_module(self):
        report = lint_one(CONTRACT + """\
            items = {1, 2, 3}
            for item in items:
                print(item)
            """)
        assert rule_ids_of(report) == ["D101"]
        assert report.findings[0].line == 3

    def test_without_contract_marker_nothing_fires(self):
        report = lint_one("""\
            items = {1, 2, 3}
            for item in items:
                print(item)
            """)
        assert report.ok

    def test_sorted_wrapping_passes(self):
        report = lint_one(CONTRACT + """\
            items = {1, 2, 3}
            for item in sorted(items):
                print(item)
            """)
        assert report.ok

    def test_set_comprehension_over_set_passes(self):
        # a set built from a set stays unordered: order cannot escape.
        report = lint_one(CONTRACT + """\
            items = {1, 2, 3}
            doubled = {i * 2 for i in items}
            """)
        assert report.ok

    def test_list_of_set_call_fires(self):
        report = lint_one(CONTRACT + """\
            def f(deps):
                return list(set(deps))
            """)
        assert rule_ids_of(report) == ["D101"]

    def test_set_typed_annotation_fires(self):
        report = lint_one(CONTRACT + """\
            def f(deps: set) -> list:
                return [d for d in deps]
            """)
        assert rule_ids_of(report) == ["D101"]

    def test_self_attribute_assigned_set_fires(self):
        report = lint_one(CONTRACT + """\
            class Engine:
                def __init__(self):
                    self._pending = set()

                def drain(self):
                    for attempt in self._pending:
                        attempt.run()
            """)
        assert rule_ids_of(report) == ["D101"]

    def test_set_algebra_expression_fires(self):
        report = lint_one(CONTRACT + """\
            a = {1}
            b = {2}
            for x in a | b:
                print(x)
            """)
        assert rule_ids_of(report) == ["D101"]

    def test_join_over_set_fires(self):
        report = lint_one(CONTRACT + """\
            names = {"b", "a"}
            text = ", ".join(names)
            """)
        assert rule_ids_of(report) == ["D101"]

    def test_sibling_method_binding_does_not_leak(self):
        # ``committed`` is a set in one method and a plain parameter in
        # its sibling — Python scoping keeps them separate, so must we.
        report = lint_one(CONTRACT + """\
            class Batcher:
                def plan(self):
                    committed = {1, 2}
                    return committed

                def settle(self, committed):
                    committed = list(committed)
                    return committed
            """)
        assert report.ok


class TestD102WallClock:
    def test_time_perf_counter_fires(self):
        report = lint_one("""\
            import time
            started = time.perf_counter()
            """)
        assert rule_ids_of(report) == ["D102"]
        assert "repro.obs.clock" in report.findings[0].message

    def test_aliased_import_fires(self):
        report = lint_one("""\
            import time as t
            now = t.monotonic()
            """)
        assert rule_ids_of(report) == ["D102"]

    def test_from_import_fires(self):
        report = lint_one("""\
            from time import perf_counter
            started = perf_counter()
            """)
        assert rule_ids_of(report) == ["D102"]

    def test_non_clock_time_attr_passes(self):
        report = lint_one("""\
            import time
            time.sleep(0.1)
            """)
        assert report.ok

    def test_clock_seam_module_is_exempt(self):
        source = "import time\nnow = time.perf_counter()\n"
        report = lint_sources([("src/repro/obs/clock.py", source)])
        assert report.ok


class TestD103UnseededRandom:
    def test_unseeded_random_fires(self):
        report = lint_one("""\
            import random
            rng = random.Random()
            """)
        assert rule_ids_of(report) == ["D103"]

    def test_seeded_random_passes(self):
        report = lint_one("""\
            import random
            rng = random.Random(42)
            """)
        assert report.ok

    def test_global_rng_function_fires(self):
        report = lint_one("""\
            import random
            value = random.randint(0, 10)
            """)
        assert rule_ids_of(report) == ["D103"]

    def test_from_import_global_fn_fires(self):
        report = lint_one("""\
            from random import shuffle
            shuffle([1, 2, 3])
            """)
        assert rule_ids_of(report) == ["D103"]


class TestO301LiteralEventName:
    def test_variable_event_name_fires(self):
        report = lint_one("""\
            def f(tracer, name):
                tracer.instant("txn", name, "driver")
            """)
        assert rule_ids_of(report) == ["O301"]

    def test_fstring_event_name_fires(self):
        report = lint_one("""\
            def f(tracer, i):
                tracer.instant("txn", f"txn.commit-{i}", "driver")
            """)
        assert rule_ids_of(report) == ["O301"]

    def test_non_tracer_receiver_ignored(self):
        report = lint_one("""\
            def f(logger, name):
                logger.instant("txn", name, "driver")
            """)
        assert report.ok


class TestO302TaxonomyEventName:
    def test_undocumented_name_fires(self):
        report = lint_one("""\
            def f(tracer):
                tracer.instant("txn", "txn.bogus", "driver")
            """)
        assert rule_ids_of(report) == ["O302"]
        assert "taxonomy" in report.findings[0].message

    @pytest.mark.parametrize("name", ["txn.read", "txn.write"])
    def test_retired_per_step_data_event_fires(self, name):
        # Data steps ride on ``txn.commit``; a per-step emit is drift.
        report = lint_one(f"""\
            def f(tracer):
                tracer.instant("data", "{name}", "engine", txn="T1")
            """)
        assert rule_ids_of(report) == ["O302"]

    def test_documented_name_passes(self):
        report = lint_one("""\
            def f(tracer):
                tracer.instant("txn", "txn.commit", "driver", txn="T1")
            """)
        assert report.ok

    def test_span_begin_end_checked_too(self):
        report = lint_one("""\
            def f(tracer):
                tracer.begin("phase", "plan.bogus", "plan")
                tracer.end("phase", "plan.batch", "plan")
            """)
        assert rule_ids_of(report) == ["O302"]

    def test_hoisted_emit_method_is_still_an_emit_site(self):
        report = lint_one("""\
            def f(tracer, steps, extras):
                instant = tracer.instant
                for step in steps:
                    instant("data", "txn.bogus", "driver", txn=step)
                    instant("txn", "txn.commit", "driver", **extras)
            """)
        assert rule_ids_of(report) == ["O302", "O303"]

    def test_undeclared_instrument_name_fires(self):
        report = lint_one("""\
            def register_into(self, registry):
                registry.counter("audit.tier.bogus", 1)
                self.registry.histogram(name="audit.bogus", samples=())
            """)
        assert rule_ids_of(report) == ["O302", "O302"]
        assert "InstrumentSpec" in report.findings[0].message

    def test_declared_or_computed_instrument_name_passes(self):
        report = lint_one("""\
            def register_into(self, registry, name):
                registry.counter("audit.tier.replay", 1)
                registry.histogram("audit.search.choices", ())
                registry.gauge(name, 0)
                collections.counter("anything")
            """)
        assert report.ok


class TestO303LiteralPayload:
    def test_double_star_payload_fires(self):
        report = lint_one("""\
            def f(tracer, extras):
                tracer.instant("txn", "txn.commit", "driver", **extras)
            """)
        assert rule_ids_of(report) == ["O303"]

    def test_literal_keywords_pass(self):
        report = lint_one("""\
            def f(tracer):
                tracer.instant("txn", "txn.commit", "driver", txn="T1", seq=3)
            """)
        assert report.ok


class TestSelection:
    def test_select_runs_only_named_rules(self):
        source = CONTRACT + (
            "import time\n"
            "items = {1}\n"
            "for i in items:\n"
            "    t = time.perf_counter()\n"
        )
        report = lint_sources([("mod.py", source)], select=["D102"])
        assert rule_ids_of(report) == ["D102"]

    def test_ignore_drops_named_rules(self):
        source = CONTRACT + (
            "import time\n"
            "items = {1}\n"
            "for i in items:\n"
            "    t = time.perf_counter()\n"
        )
        report = lint_sources([("mod.py", source)], ignore=["D101"])
        assert rule_ids_of(report) == ["D102"]

    def test_unknown_rule_id_lists_registered(self):
        with pytest.raises(ValueError, match="registered"):
            lint_sources([("mod.py", "x = 1\n")], select=["NOPE"])

    def test_syntax_error_is_a_value_error(self):
        with pytest.raises(ValueError, match="cannot lint"):
            lint_sources([("mod.py", "def broken(:\n")])
