"""MetricsRegistry and the telemetry_view adapter."""

import pytest

from repro.engine.metrics import EngineMetrics, LatencyStats
from repro.obs import MetricsRegistry, telemetry_view
from repro.obs.registry import FieldTable


class TestInstruments:
    def test_counter(self):
        registry = MetricsRegistry()
        c = registry.counter("engine.committed")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_cannot_decrease(self):
        c = MetricsRegistry().counter("n")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_gauge(self):
        g = MetricsRegistry().gauge("engine.ticks")
        g.set(42)
        assert g.value == 42

    def test_histogram_uses_shared_summary(self):
        h = MetricsRegistry().histogram("latency")
        for sample in [5, 1, 9, 3, 7]:
            h.record(sample)
        assert h.summary() == {
            "count": 5, "min": 1, "p50": 5, "mean": 5.0, "p95": 9,
            "p99": 9, "max": 9,
        }


class TestRegistry:
    def test_duplicate_name_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_get_and_names_sorted(self):
        registry = MetricsRegistry()
        registry.gauge("b", 2)
        counter = registry.counter("a", 1)
        assert registry.get("a") is counter
        assert registry.names() == ("a", "b")

    def test_as_dict_sorted_and_typed(self):
        registry = MetricsRegistry()
        registry.counter("z.count", 3)
        registry.counter("a.count", 1)
        registry.gauge("level", 7)
        registry.histogram("lat", [2, 4])
        d = registry.as_dict()
        assert list(d) == ["counters", "gauges", "histograms"]
        assert list(d["counters"]) == ["a.count", "z.count"]
        assert d["gauges"] == {"level": 7}
        assert d["histograms"]["lat"]["count"] == 2


class TestTelemetryView:
    def test_duck_typed_register_into(self):
        class Native:
            def register_into(self, registry):
                registry.counter("custom.hits", 9)

        view = telemetry_view(Native())
        assert view["counters"] == {"custom.hits": 9}

    def test_object_without_register_into_yields_empty_view(self):
        view = telemetry_view(object())
        assert view == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_sources_share_one_registry_and_none_adds_nothing(self):
        class Native:
            def register_into(self, registry):
                registry.counter("custom.hits", 9)

        class Verdict:
            def register_into(self, registry):
                registry.counter("custom.checks", 2)

        view = telemetry_view(Native(), None, Verdict())
        assert view["counters"] == {"custom.checks": 2, "custom.hits": 9}


class TestFieldTable:
    """One declaration, two views: ``as_dict`` and ``register_into``."""

    def test_both_views_derive_from_the_rows(self):
        class Native:
            hits = 3
            ratio = 2 / 3
            level = 7
            internal = 11
            latency = LatencyStats([4, 2])

            class inner:
                pruned = 5

        table = FieldTable(
            "custom",
            ("hits", "hits", "hits.total", "counter"),
            ("ratio", "ratio", None, None),  # derived: no instrument
            ("internal", None, "internal", "counter"),  # telemetry only
            ("level", "level", "level", "gauge"),
            ("latency", "latency", "latency", "histogram"),
            ("inner.pruned", "pruned", "inner.pruned", "counter"),
        )
        native = Native()
        view = table.as_dict(native)
        assert list(view) == ["hits", "ratio", "level", "latency", "pruned"]
        assert view["ratio"] == 0.667 and view["pruned"] == 5
        assert view["latency"] == native.latency.as_dict()
        registry = MetricsRegistry()
        table.register_into(native, registry)
        assert registry.as_dict() == {
            "counters": {
                "custom.hits.total": 3,
                "custom.inner.pruned": 5,
                "custom.internal": 11,
            },
            "gauges": {"custom.level": 7},
            "histograms": {"custom.latency": native.latency.as_dict()},
        }

    def test_engine_counters_without_a_key_are_telemetry_only(self):
        metrics = EngineMetrics(replays=4, steps_rejected=2, ticks=9)
        assert not {"replays", "steps_rejected", "ticks"} & set(
            metrics.as_dict()
        )
        view = telemetry_view(metrics)
        assert view["counters"]["engine.replays"] == 4
        assert view["counters"]["engine.steps.rejected"] == 2
        assert view["gauges"]["engine.ticks"] == 9
