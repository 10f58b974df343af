"""`repro.obs`: structured tracing + unified telemetry for every mode.

The observability layer the four execution backends share:

* :class:`Tracer` / :class:`EventLog` — lifecycle spans and instants in
  a bounded ring buffer; :data:`NULL_TRACER` is the zero-cost default.
* :class:`MetricsRegistry` / :func:`telemetry_view` — the uniform
  counters/gauges/histograms view over the native metrics classes.
* :mod:`~repro.obs.export` — JSONL persistence and Chrome
  trace-viewer/Perfetto rendering.
* :mod:`~repro.obs.summary` — per-phase breakdown + critical-path
  stats (``repro trace summarize``).
* :func:`percentile` / :func:`summarize_samples` — the one nearest-rank
  order-statistics rule every latency surface quotes.

``docs/observability.md`` is the user-facing guide.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.export import (
    read_jsonl,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    telemetry_view,
)
from repro.obs.stats import percentile, summarize_samples
from repro.obs.summary import format_summary, summarize
from repro.obs.tracer import (
    BEGIN,
    END,
    INSTANT,
    NULL_TRACER,
    EventLog,
    NullTracer,
    TraceEvent,
    Tracer,
)


@contextmanager
def trace_run(config):
    """Resolve a :class:`~repro.db.RunConfig`'s ``trace``/``audit`` pair.

    Yields the tracer the backend should emit through: the config's own
    :class:`Tracer` if one was passed (tests inspect it in memory),
    :data:`NULL_TRACER` when neither tracing nor auditing is on, or a
    fresh tracer.  Under ``audit`` alone the fresh tracer keeps no log:
    the live auditor subscribes to it and is the stream's one consumer.
    When ``trace`` is a path the fresh tracer's log — unbounded under
    ``audit``, so ``repro audit PATH`` can certify the file — is
    persisted as JSONL when the ``with`` block exits (also on failure:
    a partial trace of a crashed run is exactly when you want one; the
    meta header's drop count keeps truncation honest).  A deterministic
    run points the tracer at its driver's tick counter
    (``Tracer.use_clock``); the caller's own tracer is handed back on the
    clock it came with, so a later run into it is not stamped with this
    run's last tick.
    """
    trace = config.trace
    if isinstance(trace, Tracer):
        clock = trace._clock
        try:
            yield trace
        finally:
            trace.use_clock(clock)
    elif not config.audit and not isinstance(trace, str):
        yield trace or NULL_TRACER  # unset, or a passed NullTracer
    else:
        if isinstance(trace, str):
            tracer = Tracer(capacity=None) if config.audit else Tracer()
        else:  # audit alone: the live auditor is the one consumer
            tracer = Tracer(capacity=0)
        try:
            yield tracer
        finally:
            if isinstance(trace, str):
                write_jsonl(tracer, trace)


__all__ = [
    "BEGIN",
    "END",
    "INSTANT",
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "TraceEvent",
    "Tracer",
    "format_summary",
    "percentile",
    "read_jsonl",
    "summarize",
    "summarize_samples",
    "telemetry_view",
    "to_chrome_trace",
    "to_jsonl",
    "trace_run",
    "write_chrome_trace",
    "write_jsonl",
]
