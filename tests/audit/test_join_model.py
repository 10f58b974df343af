"""Reference model: the segment pipeline the one-pass join replaced.

The auditor used to turn every data step into a frozen ``DataOp``,
resolve and join a closed segment's ops into ``read``/``write`` steps,
validate them into a :class:`~repro.model.schedules.Schedule` and hand
that, with its pin map, to :func:`repro.classes.mvsr.certify_fixed`,
whose first tier replays the claimed commit order.  Now the join reads
the ``ops`` the segment's ``txn.commit`` records carry, flags the
structural violations and leaves plain ``(txn, entity, source)`` tuples,
the commit order is replayed on those
(:func:`repro.audit.auditor.replays_claimed_order`), and only a miss
builds the schedule for the graph and search tiers.

The old pipeline is kept here, in test code only, reading the same
commit records, and Hypothesis drives both over generated event streams
— engine epochs of interleaved attempts with ``seq`` retries, aborts
that list what they installed, attempts that leave no record and
transactions split over two commit records, planner batches of
contiguous commits and logic aborts, two shard tracks interleaved as
their threads emit them, base reads across segments (stale ones
included), forged writers, positions and delimiters — plus the
adversarial fixtures, the tiered judge's forged segments and mutated
real traces: the :class:`~repro.audit.AuditReport` must be equal field
for field (verdict, violation codes and details, tier tallies, search
choices, counts), and the standalone reconstructor must yield equal
segments.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass, field
from itertools import count

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.audit import (  # noqa: E402
    AuditReport,
    Segment,
    Violation,
    audit_events,
    auditor,
)
from repro.audit.reconstruct import ScheduleReconstructor  # noqa: E402
from repro.classes.mvsr import TIERS, certify_fixed  # noqa: E402
from repro.db import Database, RunConfig  # noqa: E402
from repro.graphs.polygraph import (  # noqa: E402
    SearchBudgetExceeded,
    SearchEffort,
)
from repro.model.schedules import Schedule, T_INIT  # noqa: E402
from repro.model.steps import Step, read, write  # noqa: E402
from repro.obs import Tracer, to_jsonl  # noqa: E402
from repro.obs.tracer import BEGIN, END, TraceEvent  # noqa: E402

from tests.audit import test_adversarial  # noqa: E402
from tests.audit.test_reconstruct import (  # noqa: E402
    abort, close, commit, ev, rd, wr,
)
from tests.audit.test_tiered_judge import (  # noqa: E402
    FIXTURES,
    SATISFIABLE,
    UNSATISFIABLE,
    theorem4_segment,
)

# -- the replaced pipeline -------------------------------------------------


@dataclass(frozen=True)
class DataOp:
    """One data step as a commit record carried it."""

    kind: str  # "R" | "W"
    txn: str
    entity: str
    pos: int | None
    writer: str | None = None


@dataclass
class _TrackState:
    name: str
    ops: list[DataOp] = field(default_factory=list)
    commits: list[str] = field(default_factory=list)
    aborted: dict[int, str] = field(default_factory=dict)
    segments: int = 0
    chain: dict[int, tuple[str, str]] = field(default_factory=dict)
    chain_latest: dict[str, int] = field(default_factory=dict)
    last_pos: int | None = None


class ReferenceReconstructor:
    """The replaced fold: ``DataOp`` per op, ``Step`` per op."""

    def __init__(self) -> None:
        self._tracks: dict[str, _TrackState] = {}
        self.segments: list[Segment] = []
        self.events_seen = 0

    def feed(self, event: TraceEvent) -> None:
        self.events_seen += 1
        name, args = event.name, event.args
        if name == "txn.commit":
            track = self._track(event.track)
            txn = str(args.get("txn"))
            track.commits.append(txn)
            for op in args.get("ops") or ():
                if len(op) == 2:
                    track.ops.append(DataOp("W", txn, str(op[0]), op[1]))
                else:
                    track.ops.append(
                        DataOp("R", txn, str(op[0]), op[1], op[2])
                    )
        elif name == "txn.abort":
            track = self._track(event.track)
            for pos in args.get("installed") or ():
                track.aborted[pos] = str(args.get("txn"))
        elif name in ("txn.read", "txn.write"):
            raise ValueError("trace predates commit-carried data")
        elif name == "epoch.close" or (
            name == "settle.batch" and event.ph == END
        ):
            self._close_segment(self._track(event.track))

    def finish(self) -> list[Segment]:
        for track in self._tracks.values():
            self._close_segment(track)
        return self.segments

    def _track(self, name: str) -> _TrackState:
        return self._tracks.setdefault(name, _TrackState(name))

    @property
    def tracks_with_data(self) -> tuple[str, ...]:
        return tuple(sorted(
            t.name for t in self._tracks.values() if t.segments or t.ops
        ))

    def _close_segment(self, track: _TrackState) -> None:
        ops, commits, aborted_pos = track.ops, track.commits, track.aborted
        track.ops, track.commits, track.aborted = [], [], {}
        if not ops:
            return
        index = track.segments
        track.segments += 1
        violations: list[Violation] = []

        def flag(code, txn, detail):
            violations.append(
                Violation(code, track.name, index, txn, detail)
            )

        commit_rank_by_txn = {}
        for rank, txn in enumerate(commits):
            commit_rank_by_txn.setdefault(txn, rank)

        seg_writes: dict[int, tuple[str, str]] = {}
        for op in ops:
            if op.kind != "W":
                continue
            if op.pos is None:
                flag(
                    "missing-write", op.txn,
                    f"write of {op.entity!r} carries no position",
                )
                continue
            if op.pos in seg_writes or op.pos in track.chain:
                flag(
                    "duplicate-position", op.txn,
                    f"position {op.pos} of {op.entity!r} installed twice",
                )
            if track.last_pos is not None and op.pos <= track.last_pos:
                flag(
                    "chain-regression", op.txn,
                    f"position {op.pos} of {op.entity!r} not above the "
                    f"last committed install {track.last_pos} of an "
                    f"earlier segment",
                )
            seg_writes[op.pos] = (op.txn, op.entity)

        steps: list[Step] = []
        read_sources: dict[int, str] = {}
        for op in ops:
            at = len(steps)
            if op.kind == "W":
                if op.pos is not None:
                    steps.append(write(op.txn, op.entity))
                continue
            steps.append(read(op.txn, op.entity))
            if op.pos is None:
                read_sources[at] = T_INIT
                if op.writer not in (None, T_INIT):
                    flag(
                        "read-from-mismatch", op.txn,
                        f"read of {op.entity!r} claims writer "
                        f"{op.writer!r} but sources the initial version",
                    )
                continue
            if op.pos in seg_writes:
                source = seg_writes[op.pos][0]
                read_sources[at] = source
                if op.writer != source:
                    flag(
                        "read-from-mismatch", op.txn,
                        f"read of {op.entity!r} at position {op.pos} "
                        f"claims writer {op.writer!r}, installed by "
                        f"{source!r}",
                    )
                if (
                    source != op.txn
                    and commit_rank_by_txn[source]
                    >= commit_rank_by_txn[op.txn]
                ):
                    flag(
                        "commit-order", op.txn,
                        f"committed before its reads-from source "
                        f"{source!r} (read of {op.entity!r} at "
                        f"position {op.pos})",
                    )
                continue
            read_sources[at] = T_INIT
            if op.pos in aborted_pos:
                flag(
                    "read-from-aborted", op.txn,
                    f"read of {op.entity!r} at position {op.pos} "
                    f"sources aborted writer {aborted_pos[op.pos]!r}",
                )
                continue
            if op.pos in track.chain:
                _entity, source = track.chain[op.pos]
                if op.writer != source:
                    flag(
                        "read-from-mismatch", op.txn,
                        f"read of {op.entity!r} at position {op.pos} "
                        f"claims writer {op.writer!r}, installed by "
                        f"{source!r}",
                    )
                newest = track.chain_latest.get(op.entity)
                if newest is not None and newest != op.pos:
                    flag(
                        "stale-base-read", op.txn,
                        f"read of {op.entity!r} at position {op.pos} "
                        f"bypasses newer committed position {newest}",
                    )
                continue
            flag(
                "missing-write", op.txn,
                f"read of {op.entity!r} at position {op.pos} has no "
                f"matching committed write",
            )

        for pos, (txn, entity) in seg_writes.items():
            track.chain[pos] = (entity, txn)
            newest = track.chain_latest.get(entity)
            if newest is None or pos > newest:
                track.chain_latest[entity] = pos
            if track.last_pos is None or pos > track.last_pos:
                track.last_pos = pos

        seen: set[str] = set()
        committed = tuple(
            t for t in commits if not (t in seen or seen.add(t))
        )
        self.segments.append(Segment(
            track.name, index, Schedule.of(steps), read_sources,
            committed, violations,
        ))


def reference_audit(events, dropped: int = 0) -> AuditReport:
    """The replaced judge: every segment through ``certify_fixed``."""
    rec = ReferenceReconstructor()
    violations: list[Violation] = []
    tiers = dict.fromkeys(TIERS, 0)
    choices: list[int] = []
    counts = {"reads": 0, "writes": 0, "committed": 0}
    certified = 0
    if dropped:
        violations.append(Violation(
            "trace-dropped", "", -1, "",
            f"{dropped} event(s) dropped by the ring buffer; "
            f"run with an unbounded log (capacity=None) to audit",
        ))
        segments = []
    else:
        for event in events:
            rec.feed(event)
        segments = rec.finish()
    for segment in segments:
        counts["committed"] += len(segment.committed)
        for step in segment.schedule:
            counts["reads" if step.is_read else "writes"] += 1
        if segment.violations:
            violations.extend(segment.violations)
            continue
        budget = auditor.SEARCH_BUDGET
        effort = SearchEffort(budget)
        code = detail = None
        try:
            tier = certify_fixed(
                segment.schedule, segment.read_sources, segment.committed,
                effort,
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
                f"a witness and the search stopped at {budget} "
                "choices, undecided"
            )
        tiers[tier] += 1
        if tier == "search":
            choices.append(effort.tried)
        if code is None:
            certified += 1
        else:
            violations.append(Violation(
                code, segment.track, segment.index, "",
                f"{detail} ({len(segment.schedule)} steps, "
                f"{len(segment.committed)} transactions)",
            ))
    ordered = tuple(sorted(
        violations, key=lambda v: (v.track, v.segment, v.code, v.txn, v.detail)
    ))
    return AuditReport(
        ok=not ordered, events=rec.events_seen, dropped=dropped,
        tracks=len(rec.tracks_with_data), segments=len(segments),
        certified=certified, tiers=tiers, search_choices=tuple(choices),
        committed_attempts=counts["committed"], reads=counts["reads"],
        writes=counts["writes"], violations=ordered,
    )


def assert_same_audit(events, dropped: int = 0) -> AuditReport:
    """Both pipelines, live-style and standalone, agree exactly."""
    events = list(events)
    expected = reference_audit(events, dropped)
    actual = audit_events(events, dropped=dropped)
    assert actual.as_dict() == expected.as_dict()
    assert actual == expected  # search choices per segment included
    if not dropped:
        rec = ScheduleReconstructor()
        for event in events:
            rec.feed(event)
        reference = ReferenceReconstructor()
        for event in events:
            reference.feed(event)
        assert rec.finish() == reference.finish()
    return actual


# -- generated streams -----------------------------------------------------

ENTITIES = ("x", "y", "z")


class _Run:
    """Generator state shared by a stream's segments: one position
    counter and one committed chain per track."""

    def __init__(self) -> None:
        self.positions = count(1)
        #: track -> entity -> [(pos, writer)] committed, oldest first.
        self.chain: dict[str, dict[str, list[tuple[int, str]]]] = {}

    def committed(self, track: str, entity: str) -> list[tuple[int, str]]:
        return self.chain.setdefault(track, {}).setdefault(entity, [])


def _read_source(draw, run, track, entity, installs, other=None):
    """(pos, writer) for a read: the initial version, a version written
    in this segment (committed or not), a base version (newest or
    stale), or a position nothing installed; rarely a position another
    entity was installed at, or the newest base version of the
    ``other`` track; the writer sometimes forged."""
    options = [(None, T_INIT)]
    options += [(pos, txn) for pos, txn in installs.get(entity, ())]
    base = run.committed(track, entity)
    options += base[-1:] * 3 + base[:-1]
    options.append((10_000 + draw(st.integers(0, 3)), "ghost"))
    if draw(st.integers(0, 9)) == 0:
        options += [
            (pos, txn) for other_entity, ops in installs.items()
            if other_entity != entity for pos, txn in ops
        ]
    if other is not None:
        options += run.committed(other, entity)[-1:]
    pos, writer = draw(st.sampled_from(options))
    if draw(st.integers(0, 19)) == 0:
        writer = draw(st.sampled_from(["forged", T_INIT, None]))
    return pos, writer


def _write_pos(draw, run, installs):
    """The next position, rarely a forged one (none, reused, lower)."""
    pos = next(run.positions)
    forge = draw(st.integers(0, 29))
    if forge == 0:
        return None
    if forge == 1 and installs:
        return draw(st.sampled_from(
            [p for ops in installs.values() for p, _ in ops]
        ))
    if forge == 2:
        return max(1, pos - 5)
    return pos


def _program(draw):
    return draw(st.lists(
        st.tuples(st.booleans(), st.sampled_from(ENTITIES)),
        min_size=1, max_size=4,
    ))


@st.composite
def engine_epoch(draw, run, number, track="engine", other=None, txns=4):
    """Up to ``txns`` interleaved attempts, each write taking the next
    position as it runs.  An attempt's record comes at its end: a commit
    carries its ops, an abort lists the positions it installed, and a
    vanished attempt leaves none.  A retried attempt comes back with the
    next ``seq``; rarely a transaction commits twice — its steps split
    over two records.  Reads may name a base version of the ``other``
    track."""
    names = [f"e{number}t{k}" for k in range(draw(st.integers(1, txns)))]
    attempts = {}
    for txn in names:
        program = _program(draw)
        fates = ["abort"] * draw(st.integers(0, 2))
        fates.append(draw(st.sampled_from(
            ["commit"] * 8 + ["abort", "vanish"]
        )))
        if draw(st.integers(0, 9)) == 0:
            fates.insert(0, "commit")
        attempts[txn] = {"program": program, "fates": fates, "seq": 0,
                         "ops": []}
    events, installs, committed_writes = [], {}, []
    active = list(names)
    while active:
        txn = draw(st.sampled_from(active))
        state = attempts[txn]
        seq, ops = state["seq"], state["ops"]
        if len(ops) < len(state["program"]):
            is_write, entity = state["program"][len(ops)]
            if is_write:
                pos = _write_pos(draw, run, installs)
                if pos is not None:
                    installs.setdefault(entity, []).append((pos, txn))
                ops.append(wr(entity, pos))
            else:
                ops.append(rd(entity, *_read_source(
                    draw, run, track, entity, installs, other
                )))
            continue
        fate = state["fates"].pop(0)
        installed = [op[1] for op in ops if len(op) == 2]
        if fate == "commit":
            events.append(commit(txn, *ops, seq=seq, track=track))
            committed_writes += [
                (op[0], op[1], txn) for op in ops
                if len(op) == 2 and op[1] is not None
            ]
        elif fate == "abort":
            events.append(abort(
                txn, *(pos for pos in installed if pos is not None),
                seq=seq, track=track,
            ))
        state.update(seq=seq + 1, ops=[])
        if not state["fates"]:
            active.remove(txn)
    if draw(st.booleans()):
        events.append(close(track))
    for entity, pos, txn in sorted(committed_writes, key=lambda w: w[1]):
        run.committed(track, entity).append((pos, txn))
    return events


@st.composite
def planner_batch(draw, run, number, track="driver"):
    """Contiguous transactions in timestamp order inside a
    ``settle.batch`` span; commits carry their ops and no ``seq``, and a
    logic abort lists the slots it held."""
    events = [ev("settle.batch", track=track, ph=BEGIN)]
    installs, committed_writes = {}, []
    for k in range(draw(st.integers(1, 4))):
        txn = f"p{number}t{k}"
        aborts = draw(st.integers(0, 5)) == 0
        ops = []
        for is_write, entity in _program(draw):
            if is_write:
                pos = next(run.positions)
                installs.setdefault(entity, []).append((pos, txn))
                ops.append(wr(entity, pos))
            else:
                ops.append(rd(entity, *_read_source(
                    draw, run, track, entity, installs
                )))
        if aborts:
            events.append(ev(
                "txn.abort", track=track, txn=txn, reason="logic",
                installed=[op[1] for op in ops if len(op) == 2],
            ))
            continue
        committed_writes += [
            (op[0], op[1], txn) for op in ops if len(op) == 2
        ]
        events.append(ev("txn.commit", track=track, txn=txn, ops=ops))
    if draw(st.booleans()):
        events.append(ev("settle.batch", track=track, ph=END))
    for entity, pos, txn in committed_writes:
        run.committed(track, entity).append((pos, txn))
    return events


@st.composite
def two_track_epochs(draw, run, number):
    """Two rounds of epochs on two shard tracks, each round merged event
    by event as two emitting threads interleave them; reads may name
    either track's base versions."""
    events = []
    for turn in range(2):
        label = f"{number}r{turn}"
        left = draw(engine_epoch(
            run, label, "shard-0", other="shard-1", txns=2
        ))
        right = draw(engine_epoch(
            run, label, "shard-1", other="shard-0", txns=2
        ))
        while left and right:
            events.append((left if draw(st.booleans()) else right).pop(0))
        events += left + right
    return events


@st.composite
def streams(draw):
    run = _Run()
    events = []
    for number in range(draw(st.integers(1, 4))):
        style = draw(st.sampled_from([
            engine_epoch, planner_batch, two_track_epochs,
        ]))
        events += draw(style(run, number))
    return events


def shape_cases(events) -> set[str]:
    """The record shapes ``events`` put before the join, per segment: a
    commit installing below an earlier commit of its segment, a
    transaction split over two commit records, and reads of a base
    version (a position an earlier segment of the same track
    installed), per track."""
    cases: set[str] = set()
    open_segments: dict[str, list] = {}
    installed: dict[str, set] = {}

    def close_segment(track):
        commits = [
            e.args for e in open_segments.pop(track, [])
            if e.name == "txn.commit"
        ]
        txns = [args["txn"] for args in commits]
        if len(set(txns)) < len(txns):
            cases.add("transaction split over two commit records")
        highest = None
        for args in commits:
            writes = [
                op[1] for op in args.get("ops", ())
                if len(op) == 2 and op[1] is not None
            ]
            if writes and highest is not None and min(writes) < highest:
                cases.add("commit installs below an earlier commit")
            if writes:
                highest = max([highest or 0, *writes])
            if any(
                len(op) == 3 and op[1] in installed.get(track, ())
                for op in args.get("ops", ())
            ):
                cases.add(f"base read on {track}")
        installed.setdefault(track, set()).update(
            op[1] for args in commits for op in args.get("ops", ())
            if len(op) == 2
        )

    for event in events:
        if event.name == "epoch.close" or (
            event.name == "settle.batch" and event.ph == END
        ):
            close_segment(event.track)
        else:
            open_segments.setdefault(event.track, []).append(event)
    for track in list(open_segments):
        close_segment(track)
    return cases


def events_of(segment: Segment, track: str = "engine"):
    """An event stream that reconstructs to ``segment``'s transactions:
    each write installs the next position in schedule order, each
    pinned read names the latest position its source installed before
    it, and the commit records follow the claimed order, moved only as
    far as the commit rule needs (a source commits before its
    readers), each carrying its transaction's ops in step order."""
    positions = count(1)
    latest: dict[tuple[str, str], int] = {}
    sources: dict[str, set[str]] = {}
    for i, source in segment.read_sources.items():
        reader = str(segment.schedule[i].txn)
        if source not in (T_INIT, reader):
            sources.setdefault(reader, set()).add(str(source))
    pending, order = [str(t) for t in segment.committed], []
    while pending:
        ready = next(
            t for t in pending if sources.get(t, set()) <= set(order)
        )
        pending.remove(ready)
        order.append(ready)
    ops: dict[str, list] = {txn: [] for txn in order}
    for i, step in enumerate(segment.schedule):
        txn, entity = str(step.txn), step.entity
        if step.is_write:
            pos = next(positions)
            latest[(txn, entity)] = pos
            ops[txn].append(wr(entity, pos))
            continue
        source = segment.read_sources.get(i, T_INIT)
        pos = None if source == T_INIT else latest[(str(source), entity)]
        ops[txn].append(rd(entity, pos, str(source)))
    events = [commit(txn, *ops[txn], track=track) for txn in order]
    return events + [close(track)]


class TestSameReportAsTheSegmentPipeline:
    @settings(max_examples=400, deadline=None)
    @given(streams())
    def test_generated_streams(self, events):
        assert_same_audit(events)

    def test_generated_streams_reach_every_tier(self):
        # The generator is no use if every segment replays: pin that it
        # produces graph- and search-tier verdicts, violations and the
        # attempt-membership cases.
        seen = set()

        @settings(
            max_examples=300, deadline=None, database=None,
            derandomize=True,
        )
        @given(streams())
        def collect(events):
            report = assert_same_audit(events)
            seen.update(t for t, n in report.tiers.items() if n)
            seen.update(v.code for v in report.violations)
            seen.update(shape_cases(events))

        collect()
        assert {"replay", "graph", "search"} <= seen
        assert {
            "commit-order", "stale-base-read", "read-from-aborted",
            "not-serializable", "chain-regression", "duplicate-position",
            "missing-write", "read-from-mismatch",
        } <= seen
        # The reference judges the join's record handling only on the
        # shapes the generator reaches.
        assert {
            "commit installs below an earlier commit",
            "transaction split over two commit records",
            "base read on shard-0", "base read on shard-1",
        } <= seen

    @pytest.mark.parametrize("dropped", [0, 2])
    def test_empty_and_dropped(self, dropped):
        assert_same_audit([], dropped)
        assert_same_audit([commit("a", wr("x", 1)), close()], dropped)


class TestForgedFixtures:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_tiered_judge_fixtures(self, name):
        assert_same_audit(FIXTURES[name]())

    @pytest.mark.parametrize("formula", [SATISFIABLE, UNSATISFIABLE])
    def test_theorem4_segments_need_the_search(self, formula):
        report = assert_same_audit(events_of(theorem4_segment(formula)))
        assert report.tiers["search"] == 1

    def test_late_committing_reader_needs_the_graph(self):
        w, r = write, read
        segment = Segment(
            "engine", 0, Schedule.of([r("a", "x"), w("b", "x"),
                                      r("a", "y")]),
            {0: T_INIT, 2: T_INIT}, ("b", "a"),
        )
        report = assert_same_audit(events_of(segment))
        assert report.tiers == {"replay": 0, "graph": 1, "search": 0}

    def test_padding_ids_take_the_schedule_path(self):
        # A transaction named like the padding transaction: the schedule
        # path strips it, so the in-place replay must not decide.
        assert_same_audit([
            commit("T0", wr("x", 1)), commit("b", rd("x", 1, "T0")),
            close(),
        ])

    @pytest.mark.parametrize("name", [
        name for name, _ in inspect.getmembers(
            test_adversarial.TestSyntheticViolations, inspect.isfunction,
        ) if name.startswith("test_")
    ])
    def test_adversarial_streams(self, name, monkeypatch):
        # Run the adversarial test itself with its ``audit_events``
        # routed through both pipelines.
        monkeypatch.setattr(test_adversarial, "audit_events", assert_same_audit)
        getattr(test_adversarial.TestSyntheticViolations(), name)()


def real_trace_lines():
    tracer = Tracer(capacity=None)
    Database().run(
        "sharded-bank",
        RunConfig(mode="serial", workers=2, seed=3, trace=tracer),
        txns=40,
    )
    return to_jsonl(tracer).splitlines()[1:]


REAL = real_trace_lines()


@st.composite
def mutated_real_traces(draw):
    """A real trace with a few lines forged: a commit record's read
    writer or an op's position rewritten, an event deleted, two lines
    swapped."""
    lines = list(REAL)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        record = json.loads(lines[i])
        ops = record["args"].get("ops") or []
        action = draw(st.sampled_from(["writer", "pos", "delete", "swap"]))
        if action == "writer" and any(len(op) == 3 for op in ops):
            op = draw(st.sampled_from([op for op in ops if len(op) == 3]))
            op[2] = draw(st.sampled_from(["t9999", "T0"]))
        elif action == "pos" and ops:
            op = draw(st.sampled_from(ops))
            op[1] = draw(st.sampled_from([None, 1, 10_000]))
        elif action == "delete":
            del lines[i]
            continue
        elif action == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
            continue
        lines[i] = json.dumps(record)
    return [TraceEvent(**json.loads(line)) for line in lines]


class TestMutatedRealTraces:
    def test_clean_real_trace(self):
        assert assert_same_audit(
            TraceEvent(**json.loads(line)) for line in REAL
        ).ok

    @settings(max_examples=60, deadline=None)
    @given(mutated_real_traces())
    def test_mutated_real_traces(self, events):
        assert_same_audit(events)

    @pytest.mark.parametrize("mode", ["serial", "parallel", "planner"])
    def test_real_runs_with_retries(self, mode):
        tracer = Tracer(capacity=None)
        Database().run(
            "read-mostly",
            RunConfig(mode=mode, workers=3, seed=3, trace=tracer,
                      **({"scheduler": "sgt"} if mode == "serial" else {})),
            txns=300,
        )
        report = assert_same_audit(tracer.events)
        assert report.ok
