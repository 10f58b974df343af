"""The canonical trace-event taxonomy: one table, three readers.

Every event name any backend may emit lives here, once.  Three
consumers read this module and nothing else:

* ``docs/observability.md`` — its taxonomy table is *rendered from*
  :func:`markdown_table`; the docs test pins the published table to
  this module byte-for-byte, so prose and code cannot drift.
* the contract linter (:mod:`repro.lint`) — rule ``O302`` flags any
  ``tracer.instant/begin/end`` call whose event name is not in
  :data:`EVENT_NAMES`: an undocumented event cannot ship.
* the auditor and summary tooling — anything written against the
  taxonomy works on any mode's trace, which is the whole point of
  having one.

Adding an event is therefore one edit: add its :class:`EventSpec`
below, and the docs table updates (via the pinned render) while the
linter starts accepting the new name everywhere.

Telemetry instruments registered by *literal name* (``registry.counter(
"audit.tier.replay", …)``) are declared the same way, in
:data:`INSTRUMENTS`: ``O302`` checks those call sites against
:data:`INSTRUMENT_NAMES` and the docs publish
:func:`instruments_markdown_table`.  (The native metrics classes
register through a ``FieldTable``, which is its own single
declaration.)
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EventSpec:
    """One taxonomy row: an event name and how the docs describe it.

    ``kind`` is ``"instant"`` or ``"span"``; ``detail`` is the
    parenthetical the docs table shows next to the kind (the ``data``
    category, the span's home track); ``emitted_by`` and ``payload``
    are the prose cells of the published table.
    """

    name: str
    kind: str
    detail: str
    emitted_by: str
    payload: str

    def __post_init__(self) -> None:
        if self.kind not in ("instant", "span"):
            raise ValueError(
                f"kind must be 'instant' or 'span', got {self.kind!r}"
            )

    @property
    def kind_cell(self) -> str:
        """The docs table's kind cell (kind plus its parenthetical)."""
        return f"{self.kind} ({self.detail})" if self.detail else self.kind


#: the taxonomy, in the order the docs table presents it.
EVENTS: tuple[EventSpec, ...] = (
    EventSpec(
        "txn.submit", "instant", "",
        "all modes, on admission",
        "`txn` (+ `session` in serial)",
    ),
    EventSpec(
        "txn.commit", "instant", "",
        "all modes",
        "`txn`, `latency` (ticks), `seq` (attempt)",
    ),
    EventSpec(
        "txn.abort", "instant", "",
        "serial/parallel (CC aborts), planner family (logic)",
        "`txn`, `reason`, `seq` (attempt)",
    ),
    EventSpec(
        "txn.read", "instant", "`data`",
        "all modes",
        "`txn`, `seq`, `entity`, `pos` (version read; `null` = initial), "
        "`writer` (reads-from source)",
    ),
    EventSpec(
        "txn.write", "instant", "`data`",
        "all modes",
        "`txn`, `seq`, `entity`, `pos` (chain position installed)",
    ),
    EventSpec(
        "txn.retry", "instant", "",
        "serial, parallel",
        "`txn`, `attempt`, `backoff` (ticks to wait before the retry)",
    ),
    EventSpec(
        "txn.gave-up", "instant", "",
        "serial, parallel",
        "`txn`, `attempts`",
    ),
    EventSpec(
        "txn.park", "instant", "",
        "serial (all steps in, waiting on commit dependencies)",
        "`txn`",
    ),
    EventSpec(
        "txn.vote", "instant", "",
        "parallel (2PC vote collected)",
        "`txn`, `shards`",
    ),
    EventSpec(
        "2pc.flush", "span", "`driver` track",
        "parallel group commit",
        "`batch`, `forced` (an epoch close flushed a partial batch), "
        "`committed`, `aborted`",
    ),
    EventSpec(
        "plan.batch", "span", "`plan` track",
        "planner, pipelined",
        "`batch`, `txns`",
    ),
    EventSpec(
        "execute.batch", "span", "`execute` track",
        "planner, pipelined",
        "`batch`, `steps`",
    ),
    EventSpec(
        "settle.batch", "span", "`driver` track",
        "planner, pipelined",
        "`batch`, `committed`",
    ),
    EventSpec(
        "epoch.close", "instant", "",
        "engine",
        "`epoch`, `steps`",
    ),
    EventSpec(
        "gc.collect", "instant", "",
        "watermark GC",
        "`pruned`, `before`, `after`, `watermark`",
    ),
)

#: the set the linter's O302 rule checks emit sites against.
EVENT_NAMES: frozenset[str] = frozenset(spec.name for spec in EVENTS)


@dataclass(frozen=True)
class InstrumentSpec:
    """One telemetry instrument registered by literal name."""

    name: str
    #: the :class:`repro.obs.MetricsRegistry` method that creates it.
    kind: str
    meaning: str

    def __post_init__(self) -> None:
        if self.kind not in ("counter", "gauge", "histogram"):
            raise ValueError(
                f"kind must be 'counter', 'gauge' or 'histogram', "
                f"got {self.kind!r}"
            )


#: the auditor's instruments (``AuditReport.register_into``).
INSTRUMENTS: tuple[InstrumentSpec, ...] = (
    InstrumentSpec(
        "audit.tier.replay", "counter",
        "segments certified by replaying the commit order (tier 0)",
    ),
    InstrumentSpec(
        "audit.tier.graph", "counter",
        "segments certified by replaying an order derived from the "
        "multiversion serialization graph (tier 1)",
    ),
    InstrumentSpec(
        "audit.tier.search", "counter",
        "segments that reached the budgeted polygraph search (tier 2), "
        "whatever it answered",
    ),
    InstrumentSpec(
        "audit.search.choices", "histogram",
        "choices the polygraph search tried, one sample per tier-2 "
        "segment",
    ),
)

INSTRUMENT_NAMES: frozenset[str] = frozenset(
    spec.name for spec in INSTRUMENTS
)


def get_event(name: str) -> EventSpec:
    """The spec for ``name``; ``ValueError`` names the valid events."""
    for spec in EVENTS:
        if spec.name == name:
            return spec
    raise ValueError(
        f"unknown trace event {name!r}; known: {sorted(EVENT_NAMES)}"
    )


def markdown_table() -> str:
    """The docs taxonomy table, rendered from the specs above.

    ``docs/observability.md`` publishes exactly this text and the docs
    test asserts the equality — the markdown is a rendering of this
    module, never a second copy of the facts.
    """
    lines = [
        "| event | kind | emitted by | args |",
        "|---|---|---|---|",
    ]
    for spec in EVENTS:
        lines.append(
            f"| `{spec.name}` | {spec.kind_cell} | {spec.emitted_by} "
            f"| {spec.payload} |"
        )
    return "\n".join(lines)


def instruments_markdown_table() -> str:
    """The docs table of :data:`INSTRUMENTS` (pinned like the events')."""
    lines = ["| instrument | kind | counts |", "|---|---|---|"]
    for spec in INSTRUMENTS:
        lines.append(f"| `{spec.name}` | {spec.kind} | {spec.meaning} |")
    return "\n".join(lines)


__all__ = [
    "EVENTS",
    "EVENT_NAMES",
    "EventSpec",
    "INSTRUMENTS",
    "INSTRUMENT_NAMES",
    "InstrumentSpec",
    "get_event",
    "instruments_markdown_table",
    "markdown_table",
]
