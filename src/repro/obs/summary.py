"""Trace summarization: per-phase breakdown and critical-path stats.

Consumes the event stream (from a live :class:`~repro.obs.Tracer` or a
JSONL file) and reduces it to what a perf investigation starts from:
where the time went per phase, how often each lifecycle event fired,
and how busy each track was relative to the whole run.  Busy time
beyond the span is time two tracks ran at once: every mode runs its
stages on one thread, so on the wall clock it stays 0, and on the tick
clock spans of different tracks can share ticks.

Durations are in the trace's own clock: logical ticks for deterministic
runs, microseconds otherwise (the meta/summary carries no unit —
``repro.db`` picks the clock from the run's ``deterministic``, exactly
as for latency).
"""

# repro: deterministic-contract — equal seeds must yield byte-identical output

from __future__ import annotations

from typing import Iterable

from repro.obs.stats import summarize_samples
from repro.obs.tracer import BEGIN, END, INSTANT, TraceEvent


def summarize(
    events: Iterable[TraceEvent], dropped: int = 0
) -> dict:
    """Reduce an event stream to the summary dict.

    Spans are matched per track as a stack (begin/end strictly nest on
    one track); only *top-level* spans count toward a track's busy time
    so nested spans are never double-counted.  Unclosed begins are
    reported, not guessed at.
    """
    events = list(events)
    phases: dict[str, list] = {}
    instants: dict[str, int] = {}
    stacks: dict[str, list] = {}
    busy: dict[str, int | float] = {}
    unclosed = 0
    for event in events:
        if event.ph == INSTANT:
            instants[event.name] = instants.get(event.name, 0) + 1
        elif event.ph == BEGIN:
            stacks.setdefault(event.track, []).append(event)
        elif event.ph == END:
            stack = stacks.get(event.track)
            if not stack:
                continue  # end without begin: the begin was ring-dropped
            begun = stack.pop()
            duration = event.ts - begun.ts
            phases.setdefault(begun.name, []).append(duration)
            if not stack:  # top-level span: counts toward track busy time
                busy[event.track] = busy.get(event.track, 0) + duration
    unclosed = sum(len(stack) for stack in stacks.values())

    span = (
        max(e.ts for e in events) - min(e.ts for e in events)
        if events else 0
    )
    phase_rows = {}
    total_busy = sum(sum(d) for d in phases.values())
    for name in sorted(phases):
        durations = phases[name]
        stats = summarize_samples(durations)
        stats["total"] = sum(durations)
        stats["share"] = (
            round(stats["total"] / total_busy, 3) if total_busy else 0.0
        )
        phase_rows[name] = stats
    tracks = {
        track: {
            "busy": busy[track],
            "utilization": round(busy[track] / span, 3) if span else 0.0,
        }
        for track in sorted(busy)
    }
    return {
        "events": len(events),
        "dropped": dropped,
        "unclosed_spans": unclosed,
        "span": span,
        "phases": phase_rows,
        "instants": {name: instants[name] for name in sorted(instants)},
        "tracks": tracks,
    }


def format_summary(summary: dict) -> str:
    """Render :func:`summarize`'s dict as the CLI's human block."""
    lines = [
        f"events        {summary['events']}  "
        f"(dropped {summary['dropped']}, "
        f"unclosed {summary['unclosed_spans']})",
        f"span          {summary['span']}",
    ]
    if summary["dropped"]:
        lines.insert(1, (
            f"warning: dropped={summary['dropped']} — the ring buffer "
            f"overflowed; this trace is incomplete"
        ))
    if summary["phases"]:
        lines.append("phase            count      total       mean"
                     "        p95        p99      share")
        for name, row in summary["phases"].items():
            lines.append(
                f"  {name:<14} {row['count']:>5} {row['total']:>10}"
                f" {row['mean']:>10} {row['p95']:>10} {row['p99']:>10}"
                f" {row['share']:>9.1%}"
            )
    if summary["tracks"]:
        lines.append("track            busy  utilization")
        for track, row in summary["tracks"].items():
            lines.append(
                f"  {track:<14} {row['busy']:>6}"
                f" {row['utilization']:>11.1%}"
            )
        total_busy = sum(row["busy"] for row in summary["tracks"].values())
        span = summary["span"]
        if span:
            # busy time beyond the span is time two tracks ran at once,
            # measured from the trace.
            overlap = max(0, total_busy - span)
            lines.append(
                f"critical path {span}  "
                f"(busy {total_busy}, overlapped {overlap})"
            )
    if summary["instants"]:
        pairs = ", ".join(
            f"{name} {count}"
            for name, count in summary["instants"].items()
        )
        lines.append(f"instants      {pairs}")
    return "\n".join(lines)
