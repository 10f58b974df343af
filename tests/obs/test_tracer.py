"""Tracer, the bounded EventLog, and the zero-cost null default."""

import pytest

from repro.obs import (
    BEGIN,
    END,
    INSTANT,
    NULL_TRACER,
    EventLog,
    NullTracer,
    TraceEvent,
    Tracer,
)


class TestTraceEvent:
    def test_as_dict_key_order_is_fixed(self):
        event = TraceEvent(3, INSTANT, "txn", "txn.commit", "driver",
                           {"txn": "T1", "latency": 4})
        assert list(event.as_dict()) == [
            "ts", "ph", "cat", "name", "track", "args",
        ]

    def test_args_keys_sorted(self):
        event = TraceEvent(0, INSTANT, "txn", "txn.commit", "driver",
                           {"z": 1, "a": 2})
        assert list(event.as_dict()["args"]) == ["a", "z"]


class TestEventLog:
    def test_bounded_drops_oldest(self):
        log = EventLog(capacity=3)
        for i in range(5):
            log.append(TraceEvent(i, INSTANT, "t", f"e{i}", "driver"))
        assert len(log) == 3
        assert log.dropped == 2
        # The two oldest events are gone; the newest three remain.
        assert [e.name for e in log] == ["e2", "e3", "e4"]

    def test_no_drops_under_capacity(self):
        log = EventLog(capacity=8)
        for i in range(8):
            log.append(TraceEvent(i, INSTANT, "t", "e", "driver"))
        assert len(log) == 8
        assert log.dropped == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)


class TestTracer:
    def test_emits_in_order_with_logical_clock(self):
        ticks = [0]
        tracer = Tracer()
        tracer.use_clock(lambda: ticks[0])
        tracer.begin("plan", "plan.batch", "plan", batch=0)
        ticks[0] = 5
        tracer.end("plan", "plan.batch", "plan", batch=0)
        ticks[0] = 6
        tracer.instant("txn", "txn.commit", txn="T1")
        phases = [(e.ph, e.ts) for e in tracer.events]
        assert phases == [(BEGIN, 0), (END, 5), (INSTANT, 6)]
        assert tracer.events[2].track == "driver"  # the default track

    def test_dropped_exposed_through_tracer(self):
        tracer = Tracer(capacity=2)
        tracer.use_clock(lambda: 0)
        for i in range(5):
            tracer.instant("t", "e", n=i)
        assert len(tracer.events) == 2
        assert tracer.dropped == 3

    def test_default_clock_is_monotonic(self):
        tracer = Tracer()
        tracer.instant("t", "first")
        tracer.instant("t", "second")
        first, second = tracer.events
        assert second.ts >= first.ts >= 0


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        # Unconditional calls are tolerated (the hook idiom never makes
        # them, but third-party code might).
        NULL_TRACER.use_clock(lambda: 0)
        NULL_TRACER.instant("t", "e")
        NULL_TRACER.begin("t", "s")
        NULL_TRACER.end("t", "s")


class TestUnboundedLog:
    def test_capacity_none_never_drops(self):
        log = EventLog(capacity=None)
        for i in range(100_000):
            log.append(TraceEvent(i, INSTANT, "t", "e", "driver"))
        assert len(log) == 100_000
        assert log.dropped == 0

    def test_tracer_accepts_capacity_none(self):
        tracer = Tracer(capacity=None)
        tracer.use_clock(lambda: 0)
        for i in range(70_000):  # above the bounded default
            tracer.instant("t", "e", n=i)
        assert tracer.dropped == 0
        assert len(tracer.events) == 70_000


class TestSubscribers:
    def test_sink_sees_every_event_before_drops(self):
        seen = []
        tracer = Tracer(capacity=2)
        tracer.use_clock(lambda: 0)
        tracer.subscribe(seen.append)
        for i in range(5):
            tracer.instant("t", "e", n=i)
        # The log dropped three; the subscriber saw the whole stream.
        assert len(tracer.events) == 2
        assert [e.args["n"] for e in seen] == [0, 1, 2, 3, 4]

    def test_capacity_zero_keeps_no_log(self):
        seen = []
        tracer = Tracer(capacity=0)
        tracer.use_clock(lambda: 0)
        tracer.subscribe(seen.append)
        for i in range(5):
            tracer.instant("t", "e", n=i)
        # Nothing retained, nothing dropped: the subscriber is the only
        # consumer and saw the whole stream.
        assert tracer.log is None
        assert tracer.events == [] and tracer.dropped == 0
        assert [e.args["n"] for e in seen] == [0, 1, 2, 3, 4]

    def test_unsubscribe_stops_delivery(self):
        seen = []
        tracer = Tracer()
        tracer.use_clock(lambda: 0)
        tracer.subscribe(seen.append)
        tracer.instant("t", "first")
        tracer.unsubscribe(seen.append)
        tracer.instant("t", "second")
        assert [e.name for e in seen] == ["first"]

    def test_null_tracer_tolerates_subscribers(self):
        NULL_TRACER.subscribe(lambda e: None)
        NULL_TRACER.unsubscribe(lambda e: None)


class TestSortedPayload:
    def test_nested_mappings_sorted_recursively(self):
        event = TraceEvent(0, INSTANT, "t", "e", "driver",
                           {"z": {"b": 1, "a": 2}, "a": [{"d": 1, "c": 2}]})
        args = event.as_dict()["args"]
        assert list(args) == ["a", "z"]
        assert list(args["z"]) == ["a", "b"]
        assert list(args["a"][0]) == ["c", "d"]
