"""`MetricsRegistry`: one namespace of counters, gauges and histograms.

The three metrics classes (:class:`repro.engine.metrics.EngineMetrics`,
:class:`repro.runtime.metrics.RuntimeMetrics`,
:class:`repro.planner.metrics.PlannerMetrics`) grew up independently and
diverge in shape; cross-mode tooling had to know all three.  The
registry inverts that: each class *registers* its counters under dotted
names (``engine.committed``, ``runtime.group_commit.flushed``,
``planner.cc_aborts`` …) via its ``register_into`` method, and
:meth:`MetricsRegistry.as_dict` yields one uniform, sorted, JSON-stable
view — the ``telemetry`` surface :class:`repro.db.RunReport` exposes for
every backend without touching the guaranteed report schema.

Wall-clock quantities are deliberately *not* registered (the same rule
as every ``as_dict``): two equal-seed deterministic runs produce
byte-identical telemetry.
"""

# repro: deterministic-contract — equal seeds must yield byte-identical output

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Sequence

from repro.obs.stats import summarize_samples


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += n


class Gauge:
    """A point-in-time level (version count, worker count, ticks)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int | float = 0) -> None:
        self.name = name
        self.value = value

    def set(self, value: int | float) -> None:
        self.value = value


class Histogram:
    """A sample distribution, summarized by the shared percentile rule."""

    __slots__ = ("name", "samples")

    def __init__(
        self, name: str, samples: Iterable[int | float] = ()
    ) -> None:
        self.name = name
        self.samples: list[int | float] = list(samples)

    def record(self, value: int | float) -> None:
        self.samples.append(value)

    def summary(self) -> dict:
        return summarize_samples(self.samples)


class MetricsRegistry:
    """Named instruments, each created exactly once, typed at creation."""

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _register(self, instrument):
        name = instrument.name
        if name in self._instruments:
            raise ValueError(f"instrument {name!r} already registered")
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, value: int = 0) -> Counter:
        return self._register(Counter(name, value))

    def gauge(self, name: str, value: int | float = 0) -> Gauge:
        return self._register(Gauge(name, value))

    def histogram(
        self, name: str, samples: Sequence[int | float] = ()
    ) -> Histogram:
        return self._register(Histogram(name, samples))

    def get(self, name: str):
        return self._instruments[name]

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._instruments))

    def as_dict(self) -> dict:
        """The uniform telemetry view: three sorted sub-maps.

        Counters and gauges serialize to their values, histograms to the
        shared count/min/p50/mean/p95/max summary.  Sorted names make
        the dict byte-stable regardless of registration order.
        """
        counters: dict = {}
        gauges: dict = {}
        histograms: dict = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                counters[name] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[name] = instrument.value
            else:
                histograms[name] = instrument.summary()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


class FieldTable:
    """One metrics class's counters, declared once.

    A row is ``(attribute, as_dict key | None, telemetry name | None,
    kind | None)``: ``attribute`` is a (dotted) attribute path on the
    metrics object, the telemetry name is relative to the table's
    ``prefix``, and ``kind`` is the :class:`MetricsRegistry` instrument —
    ``"counter"``, ``"gauge"`` or ``"histogram"`` (the attribute is then
    a sample holder with ``samples`` and ``as_dict``).  Both serialized
    views derive from the rows: :meth:`as_dict` takes those with a key,
    in row order (the native dicts are byte-pinned by bench records, so
    order is part of the declaration), :meth:`register_into` those with
    a telemetry name.  ``None`` says a value is deliberately absent from
    that view — configuration and derived totals have no instrument, and
    a counter without a key is published through telemetry only.
    """

    def __init__(self, prefix: str, *rows: tuple) -> None:
        self._rows = [
            (attrgetter(attribute), key, name and f"{prefix}.{name}", kind)
            for attribute, key, name, kind in rows
        ]

    def as_dict(self, metrics) -> dict:
        view = {}
        for get, key, _, kind in self._rows:
            if key is None:
                continue
            value = get(metrics)
            if kind == "histogram":
                value = value.as_dict()
            elif isinstance(value, float):
                value = round(value, 3)
            view[key] = value
        return view

    def register_into(self, metrics, registry: MetricsRegistry) -> None:
        for get, _, name, kind in self._rows:
            if name is None:
                continue
            value = get(metrics)
            if kind == "histogram":
                value = value.samples
            getattr(registry, kind)(name, value)


def telemetry_view(*sources) -> dict:
    """The telemetry dict for native metrics objects (and the audit).

    Objects exposing ``register_into(registry)`` (all built-in metrics
    classes, :class:`repro.audit.AuditReport`) populate one fresh
    registry; anything else — ``None`` included — adds nothing, so a
    third-party backend opts in by implementing the method.
    """
    registry = MetricsRegistry()
    for source in sources:
        register = getattr(source, "register_into", None)
        if register is not None:
            register(registry)
    return registry.as_dict()
