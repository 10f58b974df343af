"""The auditor: structural checks + online 1-SR certification.

Drives a :class:`~repro.audit.reconstruct.ScheduleReconstructor` and
certifies every segment the moment it closes: the epoch's steps, with
their observed reads-from relation pinned per read, are checked against
:func:`repro.classes.mvsr.certify_fixed`'s decision.  A pass means a
serial order exists in which every read is served exactly the version
the run actually served it — 1-SR, certified from the trace rather than
assumed from the scheduler.

Finding such an order is NP-complete (the paper's Theorems 4–5);
checking a claimed one is a single pass, and every mode names its
order.  So the judge is witness-first, three tiers on one code path:

0. **replay** the order the run claims — the segment's commit order —
   against the pinned sources, O(steps), straight over the joined ops
   (:func:`replays_claimed_order`); only a miss builds the segment's
   :class:`~repro.model.schedules.Schedule` for the tiers below;
1. **graph**: derive an order from the multiversion serialization graph
   of the pins (install order as version order) and replay that,
   polynomial;
2. **search**: the polygraph backtracker
   (:func:`~repro.classes.mvsr.is_mvsr_fixed`), under
   :data:`~repro.graphs.polygraph.SEARCH_BUDGET` choices — past it the
   segment's verdict is ``audit-budget-exceeded``, neither a pass nor
   ``not-serializable``.

A verified witness is sound however it was guessed: tiers 0 and 1 only
ever *propose* an order, and the replay accepts it only if it satisfies
every constraint the search would have had to satisfy.  So no segment
is certified without a replay-verified order or a completed search.

Structural violations (reads-from consistency, version-chain
integrity, the recoverability commit rule) are detected during
reconstruction; a segment carrying any is reported broken and skipped
by the decider (a forged reads-from relation makes its verdict
meaningless).  A post-hoc audit of a stream with drops refuses it
(``trace-dropped``): an incomplete stream certifies nothing.  A live
auditor is a tracer subscriber, which sees every event whatever the
tracer's log keeps — an audit-only run keeps no log at all — so its
verdict never depends on the log's drop count.

Epochs keep the instances small; the budget bounds the rest — a
pathological segment ends in a named verdict, never a hang.
"""

# repro: deterministic-contract — equal seeds must yield byte-identical output

from __future__ import annotations

from repro.audit.reconstruct import Joined, ScheduleReconstructor, Segment
from repro.audit.report import AuditReport
from repro.audit.violations import Violation
from repro.classes.mvsr import TIERS, certify_fixed
from repro.graphs.polygraph import (
    SEARCH_BUDGET,
    SearchBudgetExceeded,
    SearchEffort,
)
from repro.model.schedules import T_FINAL, T_INIT


def replays_claimed_order(joined: Joined) -> bool:
    """Tier 0 over a joined segment: does its commit order serve every
    pinned read?  :func:`~repro.classes.mvsr.order_serves_fixed`'s
    replay, without the schedule.

    The transactions run serially in ``joined.committed`` order, each
    one's steps in trace order (positions bucketed by commit rank, no
    sort), keeping per entity the last writer and the position of that
    writer's first write there: every read must find its pinned source,
    installed before the read's own position.
    """
    ops, committed = joined.ops, joined.committed
    if T_INIT in committed or T_FINAL in committed:
        return False  # padding ids: the schedule path owns that case
    rank = {txn: r for r, txn in enumerate(committed)}
    buckets: list[list[int]] = [[] for _ in committed]
    for at, op in enumerate(ops):
        buckets[rank[op[0]]].append(at)
    last: dict[str, tuple[str, int]] = {}
    for bucket in buckets:
        for at in bucket:
            txn, entity, source = ops[at]
            found = last.get(entity)
            if source is None:
                if found is None or found[0] != txn:
                    last[entity] = (txn, at)
            elif found is None:
                if source != T_INIT:
                    return False
            elif source != found[0] or found[1] > at:
                return False
    return True


class Auditor(ScheduleReconstructor):
    """Folds a trace stream and certifies each segment as it closes.

    The auditor *is* the reconstructor whose segment close judges: its
    :meth:`feed` is the fold itself, so a subscribed auditor is one
    frame below the tracer's emit.  The fold touches only the event's
    own track; tracks meet only in the judgment of a closed segment
    (the verdict tallies) and in :meth:`finish`.
    """

    def __init__(self) -> None:
        super().__init__()
        #: certification verdicts per segment, in close order.
        self.certified_segments = 0
        #: judged segments per tier that gave the verdict (the search
        #: tier's include the rejected and the undecided).
        self._tiers = dict.fromkeys(TIERS, 0)
        #: choices tried by the search tier, one entry per segment it saw.
        self._search_choices: list[int] = []
        self.violations: list[Violation] = []
        self._counts = {"reads": 0, "writes": 0, "committed": 0}
        self._report: AuditReport | None = None

    # -- live wiring -------------------------------------------------------

    @classmethod
    def attach(cls, tracer) -> "Auditor":
        """Subscribe a fresh auditor to ``tracer``'s event stream."""
        auditor = cls()
        tracer.subscribe(auditor.feed)
        return auditor

    #: The tracer-sink entry point (also usable post-hoc): the
    #: reconstructor's fold, bound on this class so the sink is the
    #: fold and ``Auditor.feed`` names it.
    feed = ScheduleReconstructor.feed

    # -- judgment ----------------------------------------------------------

    def _closed(self, joined: Joined) -> None:
        """Certify one closed segment from its joined ops when its claimed
        order replays; build the :class:`Segment` only otherwise."""
        if joined.violations or not replays_claimed_order(joined):
            self._judge(joined.segment())
            return
        self._counts["committed"] += len(joined.committed)
        self._counts["reads"] += joined.reads
        self._counts["writes"] += len(joined.ops) - joined.reads
        self._tiers["replay"] += 1
        self.certified_segments += 1

    def _judge(self, segment: Segment) -> None:
        """Certify one closed segment through the schedule tiers (called
        by :meth:`_closed` as the segment closes — online certification
        happens as the run progresses)."""
        self._counts["committed"] += len(segment.committed)
        for step in segment.schedule:
            key = "reads" if step.is_read else "writes"
            self._counts[key] += 1
        if segment.violations:
            self.violations.extend(segment.violations)
            return
        effort = SearchEffort(SEARCH_BUDGET)
        code = detail = None
        try:
            tier = certify_fixed(
                segment.schedule, segment.read_sources,
                segment.committed, effort,
            )
            if tier is None:
                tier, code = "search", "not-serializable"
                detail = (
                    "no serial order serves the observed reads-from "
                    "relation"
                )
        except SearchBudgetExceeded:
            tier, code = "search", "audit-budget-exceeded"
            detail = (
                "neither the commit order nor the serialization graph is "
                f"a witness and the search stopped at {SEARCH_BUDGET} "
                "choices, undecided"
            )
        self._tiers[tier] += 1
        if tier == "search":
            self._search_choices.append(effort.tried)
        if code is None:
            self.certified_segments += 1
        else:
            self.violations.append(Violation(
                code, segment.track, segment.index, "",
                f"{detail} ({len(segment.schedule)} steps, "
                f"{len(segment.committed)} transactions)",
            ))

    def finish(self, dropped: int = 0) -> AuditReport:
        """Flush residual segments and assemble the report (idempotent).

        ``dropped`` is the drop count of a stream read back from a log
        (post-hoc); a live auditor saw every event and passes none.
        """
        if self._report is not None:
            return self._report
        if dropped:
            # An incomplete stream voids every conclusion: refuse
            # rather than certify a schedule with holes in it.
            self.violations.append(Violation(
                "trace-dropped", "", -1, "",
                f"{dropped} event(s) dropped by the ring buffer; "
                f"run with an unbounded log (capacity=None) to audit",
            ))
        else:
            super().finish()
        violations = tuple(sorted(
            self.violations,
            key=lambda v: (v.track, v.segment, v.code, v.txn, v.detail),
        ))
        self._report = AuditReport(
            ok=not violations,
            events=self.events_seen,
            dropped=dropped,
            tracks=len(self.tracks_with_data),
            segments=self.closed,
            certified=self.certified_segments,
            tiers=dict(self._tiers),
            search_choices=tuple(self._search_choices),
            committed_attempts=self._counts["committed"],
            reads=self._counts["reads"],
            writes=self._counts["writes"],
            violations=violations,
        )
        return self._report


def audit_events(events, dropped: int = 0) -> AuditReport:
    """Post-hoc audit of an in-memory event list."""
    auditor = Auditor()
    if not dropped:
        for event in events:
            auditor.feed(event)
    return auditor.finish(dropped=dropped)


def audit_file(path: str) -> AuditReport:
    """Post-hoc audit of a ``repro run --trace`` JSONL file.

    Checks the meta header's drop count first — a truncated trace is
    refused with a ``trace-dropped`` violation, never part-audited.
    Raises ``ValueError`` (the CLI's usage-error class) for files that
    are not traces.
    """
    from repro.obs.export import read_jsonl

    meta, events = read_jsonl(path)
    return audit_events(events, dropped=int(meta.get("dropped", 0) or 0))
