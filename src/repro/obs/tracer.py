"""Structured tracing: lifecycle spans and events for every backend.

A :class:`Tracer` records :class:`TraceEvent`\\ s — begin/end span pairs
and instants — into a bounded ring-buffer :class:`EventLog`, or into no
log at all when only its subscribers (the live auditor) consume them.
The four execution modes emit the same taxonomy through it (``docs/
observability.md`` is the reference), so one trace format covers the
serial engine, the shard runtime and the batch planner.

Two contracts shape the design:

* **Determinism.**  For a deterministic run, the :mod:`repro.db`
  adapter that builds the driver points the tracer's clock at that
  driver's logical tick counter (:meth:`Tracer.use_clock`), so two
  equal-seed runs emit byte-identical traces — the same reproducibility
  rule the metrics dicts already honor, extended to the event stream.
  Other runs keep the wall clock (microseconds since tracer
  construction) and give up byte-identity, exactly like their
  ``elapsed`` fields.
* **Zero-cost when off.**  The default tracer is :data:`NULL_TRACER`,
  whose ``enabled`` is False; every instrumentation hook is guarded as
  ``if tracer.enabled: tracer.instant(...)`` so an untraced run pays one
  attribute check per hook and builds no event objects.
"""

# repro: deterministic-contract — equal seeds must yield byte-identical output

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterator, NamedTuple

from repro.obs.clock import wall_clock_us

#: event kinds, following the Chrome trace-viewer phase letters:
#: ``B``/``E`` bracket a span on one track, ``I`` is an instant.
BEGIN = "B"
END = "E"
INSTANT = "I"


class TraceEvent(NamedTuple):
    """One trace record: what happened, when, on which track.

    ``ts`` is the tracer clock's value at emit time — logical ticks when
    the run is deterministic, microseconds otherwise.  ``track`` names the
    logical lane the event belongs to (``"driver"``, ``"plan"``,
    ``"execute"``, ``"shard-2"`` …); the Chrome exporter maps tracks to
    threads so phase overlap is directly visible.  ``args`` carries the
    event's payload (txn id, abort reason, counts) and must stay
    JSON-serializable.  Immutable and built once per emit, which is
    why it is a named tuple (a frozen dataclass costs several times as
    much to build); the default ``args`` is shared, never mutate it.
    """

    ts: int | float
    ph: str
    cat: str
    name: str
    track: str
    args: dict[str, Any] = {}

    def as_dict(self) -> dict[str, Any]:
        """Stable key order; ``args`` keys sorted — byte-stable JSONL."""
        return {
            "ts": self.ts,
            "ph": self.ph,
            "cat": self.cat,
            "name": self.name,
            "track": self.track,
            "args": sorted_payload(self.args),
        }


#: builds a :class:`TraceEvent` from a 6-tuple without the generated
#: ``__new__``'s keyword handling — the emit path's one allocation.
_new_event = tuple.__new__


def sorted_payload(value: Any) -> Any:
    """``value`` with every mapping's keys sorted, recursively.

    Event ``args`` may nest (a data-op event carries its reads-from
    source as a small dict); a one-level sort would leave the nested
    keys in insertion order and break byte-identity between equal-seed
    runs whose emit sites differ only in keyword order.
    """
    if isinstance(value, dict):
        return {k: sorted_payload(value[k]) for k in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [sorted_payload(v) for v in value]
    return value


class EventLog:
    """Bounded ring buffer of trace events.

    When full, the oldest event is dropped and counted — a trace can
    never grow without bound no matter how long the run, and the drop
    count rides along so a truncated trace says so instead of silently
    posing as complete.  ``capacity=None`` lifts the bound entirely for
    consumers that need the complete stream later (a post-hoc audit
    refuses truncated traces, so ``--trace PATH`` under ``--audit``
    records everything).
    """

    def __init__(self, capacity: int | None = 65536) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self._events: deque[TraceEvent] = deque()
        self._dropped = 0

    def append(self, event: TraceEvent) -> None:
        if self.capacity is not None and len(self._events) >= self.capacity:
            self._events.popleft()
            self._dropped += 1
        self._events.append(event)

    @property
    def dropped(self) -> int:
        """Events discarded to honor the capacity bound."""
        return self._dropped

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(list(self._events))


class NullTracer:
    """The do-nothing default: ``enabled`` is False, hooks skip it.

    Every method exists so code that *unconditionally* calls the tracer
    still works — but the supported hook idiom checks ``enabled`` first
    and never reaches them.
    """

    enabled = False

    def use_clock(self, clock: Callable[[], int | float]) -> None:
        return None

    def subscribe(self, sink: Callable[[TraceEvent], None]) -> None:
        return None

    def unsubscribe(self, sink: Callable[[TraceEvent], None]) -> None:
        return None

    def instant(self, cat: str, name: str, track: str = "driver",
                **args: Any) -> None:
        return None

    def begin(self, cat: str, name: str, track: str = "driver",
              **args: Any) -> None:
        return None

    def end(self, cat: str, name: str, track: str = "driver",
            **args: Any) -> None:
        return None


#: the shared default tracer — untraced runs all point here.
NULL_TRACER = NullTracer()


class Tracer:
    """Collects trace events for one run.

    ``clock`` supplies timestamps; the default is wall-clock
    microseconds since construction.  For a deterministic run the
    :mod:`repro.db` adapter replaces it with its driver's tick counter
    via :meth:`use_clock`: the adapter builds the driver, so it knows
    which counter is the clock.

    ``capacity`` bounds the :class:`EventLog` (``None``: unbounded);
    ``capacity=0`` keeps no log at all — events reach the subscribers
    and nothing else, so an audit-only run retains no event.
    """

    enabled = True

    def __init__(
        self,
        capacity: int | None = 65536,
        clock: Callable[[], int | float] | None = None,
    ) -> None:
        self.log = None if capacity == 0 else EventLog(capacity)
        if clock is None:
            clock = wall_clock_us()
        self._clock = clock
        self._sinks: tuple[Callable[[TraceEvent], None], ...] = ()

    def use_clock(self, clock: Callable[[], int | float]) -> None:
        """Point timestamps at a logical clock (a deterministic run)."""
        self._clock = clock

    # -- subscribers -------------------------------------------------------

    def subscribe(self, sink: Callable[[TraceEvent], None]) -> None:
        """Push every subsequent event to ``sink`` as it is emitted.

        This is the live-audit hook: a subscriber sees the complete
        stream regardless of ring-buffer capacity, because it is fed
        whatever the log keeps.  A sink runs synchronously in the
        emitting frame, after the log append, so events arrive one at a
        time in emit order.  Keep sinks cheap — the live auditor folds
        the event into its track's state as it arrives.
        """
        self._sinks = (*self._sinks, sink)

    def unsubscribe(self, sink: Callable[[TraceEvent], None]) -> None:
        # ``==``, not ``is``: bound methods (``auditor.feed``) are a
        # fresh object per attribute access but compare equal.
        self._sinks = tuple(s for s in self._sinks if s != sink)

    # -- emit --------------------------------------------------------------

    # Each emitter builds its event and hands it on in its own frame:
    # an audited run emits tens of thousands of events, and a shared
    # helper would cost one more call per event.

    def instant(self, cat: str, name: str, track: str = "driver",
                **args: Any) -> None:
        """A point event (commit, abort, GC cycle, vote …)."""
        event = _new_event(
            TraceEvent, (self._clock(), INSTANT, cat, name, track, args)
        )
        if self.log is not None:
            self.log.append(event)
        for sink in self._sinks:
            sink(event)

    def begin(self, cat: str, name: str, track: str = "driver",
              **args: Any) -> None:
        """Open a span on ``track``; close it with :meth:`end`."""
        event = _new_event(
            TraceEvent, (self._clock(), BEGIN, cat, name, track, args)
        )
        if self.log is not None:
            self.log.append(event)
        for sink in self._sinks:
            sink(event)

    def end(self, cat: str, name: str, track: str = "driver",
            **args: Any) -> None:
        event = _new_event(
            TraceEvent, (self._clock(), END, cat, name, track, args)
        )
        if self.log is not None:
            self.log.append(event)
        for sink in self._sinks:
            sink(event)

    # -- inspection --------------------------------------------------------

    @property
    def events(self) -> list[TraceEvent]:
        return [] if self.log is None else list(self.log)

    @property
    def dropped(self) -> int:
        return 0 if self.log is None else self.log.dropped
