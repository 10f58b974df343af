"""Trace exporters: JSON-lines on disk, Chrome trace-viewer in memory.

The JSONL format is the persistence format (``repro run --trace PATH``
writes it, ``repro trace summarize PATH`` reads it back): one event per
line in emit order, preceded by one ``meta`` header line carrying the
event/drop counts, all with sorted keys and compact separators so a
deterministic run's trace file is byte-identical across runs.

The Chrome format (also read by Perfetto's legacy importer) is a
*view*: tracks become named threads, so each stage (plan, execute,
every shard) renders as its own lane.  ``docs/observability.md`` walks
the round trip.
"""

# repro: deterministic-contract — equal seeds must yield byte-identical output

from __future__ import annotations

import json
from typing import Iterable

from repro.obs.tracer import (
    BEGIN, END, INSTANT, TraceEvent, Tracer, sorted_payload,
)


def _dump(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=False)


def to_jsonl(tracer: Tracer) -> str:
    """Serialize a tracer's log: one meta line, then one line per event."""
    events = tracer.events
    lines = [_dump({
        "meta": "trace",
        "events": len(events),
        "dropped": tracer.dropped,
    })]
    lines.extend(_dump(event.as_dict()) for event in events)
    return "\n".join(lines) + "\n"


def write_jsonl(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as sink:
        sink.write(to_jsonl(tracer))


def read_jsonl(path: str) -> tuple[dict, list[TraceEvent]]:
    """Load a JSONL trace; returns ``(meta, events)``.

    Raises ``ValueError`` (the CLI's usage-error class) for files that
    are not a trace, so ``repro trace summarize`` fails with one line.
    """
    try:
        with open(path, "r", encoding="utf-8") as source:
            lines = [line for line in source.read().splitlines() if line]
    except OSError as exc:
        raise ValueError(f"cannot read trace: {exc}") from None
    if not lines:
        raise ValueError(f"{path} is empty, not a trace")
    try:
        meta = json.loads(lines[0])
        records = [json.loads(line) for line in lines[1:]]
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not a JSONL trace: {exc}") from None
    if meta.get("meta") != "trace":
        raise ValueError(f"{path} has no trace meta header")
    events = [
        TraceEvent(
            ts=r["ts"], ph=r["ph"], cat=r["cat"], name=r["name"],
            track=r["track"], args=r.get("args", {}),
        )
        for r in records
    ]
    return meta, events


def to_chrome_trace(events: Iterable[TraceEvent]) -> dict:
    """Chrome trace-viewer / Perfetto JSON for a list of events.

    One process, one thread per track (named via thread_name metadata),
    ``B``/``E``/``i`` phases.  Timestamps pass through unscaled: wall
    clocks are already microseconds, and logical ticks read fine as
    "microseconds" in the viewer (relative widths are what matter).
    """
    events = list(events)
    tracks: dict[str, int] = {}
    trace_events: list[dict] = []
    for event in events:
        tid = tracks.setdefault(event.track, len(tracks))
        entry = {
            "name": event.name,
            "cat": event.cat,
            "ph": "i" if event.ph == INSTANT else event.ph,
            "ts": event.ts,
            "pid": 0,
            "tid": tid,
            "args": sorted_payload(event.args),
        }
        if event.ph == INSTANT:
            entry["s"] = "t"  # thread-scoped instant marker
        trace_events.append(entry)
    metadata = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "args": {"name": track},
        }
        for track, tid in tracks.items()
    ]
    return {"traceEvents": metadata + trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(events: Iterable[TraceEvent], path: str) -> None:
    with open(path, "w", encoding="utf-8") as sink:
        json.dump(to_chrome_trace(events), sink, separators=(",", ":"))


__all__ = [
    "to_jsonl", "write_jsonl", "read_jsonl",
    "to_chrome_trace", "write_chrome_trace",
    "BEGIN", "END", "INSTANT",
]
