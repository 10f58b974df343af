"""Differential oracle: every backend × scheduler equals a serial replay.

The audit says a run's schedule is 1-serializable and ``same_answers``
says a change answers as its parent did; neither says the final state is
*right*.  This harness does.  For generated transfer streams it runs
every registered backend under every scheduler the backend's
``defaults`` accepts, and the shard runtime (``parallel``) once more
under each of the seeded completion orders 0–9
(``tests/runtime/completion_order.py``), and requires of each run:

* a certified live audit and ``invariant_ok`` (money is conserved);
* no placeholder version left in any store the run built;
* a final state equal to a *literal* serial replay of the committed
  transactions — their programs executed one at a time over a plain
  dict — in the order the run claims.  That order is the commit order
  where the audit certified every segment by replaying it, and
  otherwise a topological order of the run's global multiversion
  serialization graph, built here from the trace's data events.

The generator mixes transfers (one with an own-write re-read), a
transfer whose writes come late, read-only audits and programs that
roll themselves back, unconditionally or by value.  It is seeded with
the three textbook multiversion timestamp-ordering cases: a late write
under a younger reader, an own-write re-read, and two writers with a
reader between them.
"""

import contextlib

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.db import Database, RunConfig, backend_names, get_backend
from repro.engine.factory import SCHEDULER_FACTORIES
from repro.graphs.digraph import Digraph
from repro.model.schedules import T_INIT
from repro.model.steps import read, write
from repro.model.transactions import Transaction
from repro.obs import Tracer
from repro.storage.executor import write_value
from repro.storage.mvstore import MultiversionStore

from tests.runtime.completion_order import SeededOrder, install

BALANCE = 100

#: every (mode, scheduler) pair the registry offers; ``None`` for a
#: backend that takes no scheduler.
RUNS = tuple(
    (mode, scheduler)
    for mode in backend_names()
    for scheduler in (
        sorted(SCHEDULER_FACTORIES)
        if "scheduler" in get_backend(mode).defaults
        else (None,)
    )
)

#: derandomized and bounded: the same examples on every run.
BUDGET = settings(
    max_examples=25, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


class RolledBack(RuntimeError):
    """A program's own decision to abort."""


# -- transaction shapes ------------------------------------------------------
#
# Each shape names its steps over (source, target, extra) and a program
# that moves ``amount`` from source to target, so every committed
# transaction conserves the total.


def _debit_credit(amount, credit_read):
    def program(write_index, reads):
        if write_index == 0:
            return reads[0] - amount
        return reads[credit_read] + amount

    return program


def _shape_steps(txn, shape, source, target, extra):
    r = lambda e: read(txn, e)  # noqa: E731
    w = lambda e: write(txn, e)  # noqa: E731
    if shape == "transfer":
        return (r(source), r(target), w(source), w(target)), 1
    if shape == "reread":
        # read-own-write: the second read of source sees the debit.
        return (r(source), w(source), r(source), r(target), w(target)), 2
    if shape == "late":
        # the writes trail a read of a third account.
        return (r(source), r(target), r(extra), w(source), w(target)), 1
    raise ValueError(shape)


def make_txn(k, kind, shape, source, target, extra, amount, floor=0):
    txn = f"t{k}"
    if kind == "audit":
        return Transaction(txn, (read(txn, source), read(txn, target))), None
    steps, credit_read = _shape_steps(txn, shape, source, target, extra)
    program = _debit_credit(amount, credit_read)
    if kind == "boom":
        def program(write_index, reads):  # noqa: F811
            raise RolledBack(txn)
    elif kind == "guard":
        inner = program

        def program(write_index, reads):  # noqa: F811
            if reads[0] - amount < floor:
                raise RolledBack(txn)
            return inner(write_index, reads)

    return Transaction(txn, steps), program


class GeneratedScenario:
    """A fixed stream as a scenario object ``Database.run`` accepts."""

    def __init__(self, accounts, stream):
        self.accounts = tuple(accounts)
        self.stream = tuple(stream)

    def initial_state(self):
        return {a: BALANCE for a in self.accounts}

    def transaction_stream(self, n):
        return iter(self.stream[:n])

    def invariant_holds(self, state):
        total = {**self.initial_state(), **state}
        return sum(total.values()) == BALANCE * len(self.accounts)


@st.composite
def streams(draw):
    n_accounts = draw(st.integers(min_value=2, max_value=4))
    accounts = [f"a{i}" for i in range(n_accounts)]
    stream = []
    for k in range(draw(st.integers(min_value=1, max_value=10))):
        source = draw(st.sampled_from(accounts), label=f"src:{k}")
        others = [a for a in accounts if a != source]
        target = draw(st.sampled_from(others), label=f"dst:{k}")
        extra = draw(st.sampled_from(accounts), label=f"extra:{k}")
        kind = draw(st.sampled_from(
            ["move", "move", "move", "audit", "boom", "guard"]
        ), label=f"kind:{k}")
        shape = draw(st.sampled_from(["transfer", "reread", "late"]),
                     label=f"shape:{k}")
        amount = draw(st.integers(min_value=1, max_value=60))
        floor = draw(st.integers(min_value=0, max_value=120))
        stream.append(
            make_txn(k, kind, shape, source, target, extra, amount, floor)
        )
    return GeneratedScenario(accounts, stream)


def textbook(*specs, accounts=("a0", "a1", "a2")):
    return GeneratedScenario(accounts, [
        make_txn(k, kind, shape, *entities, amount=10)
        for k, (kind, shape, entities) in enumerate(specs)
    ])


#: an old transaction's write lands after a younger one read the entity.
LATE_WRITE_UNDER_YOUNGER_READER = textbook(
    ("move", "late", ("a0", "a1", "a2")),
    ("audit", None, ("a0", "a1", None)),
)
#: a transaction re-reads an entity it wrote and must see its own write.
OWN_WRITE_REREAD = textbook(
    ("move", "reread", ("a0", "a1", None)),
    ("move", "reread", ("a1", "a0", None)),
)
#: two writers of a0 with a reader of a0 between them.
READER_BETWEEN_TWO_WRITERS = textbook(
    ("move", "transfer", ("a0", "a1", None)),
    ("audit", None, ("a0", "a2", None)),
    ("move", "transfer", ("a2", "a0", None)),
)


# -- the oracle --------------------------------------------------------------


def serial_replay(scenario, order):
    """Execute the committed transactions one at a time, in ``order``."""
    programs = {t.txn: (t, p) for t, p in scenario.stream}
    state = scenario.initial_state()
    for txn in order:
        transaction, program = programs[txn]
        reads, writes, write_index = [], {}, 0
        for step in transaction.steps:
            if step.is_read:
                reads.append(writes.get(step.entity, state[step.entity]))
            else:
                writes[step.entity] = write_value(
                    program, txn, write_index, reads
                )
                write_index += 1
        state.update(writes)
    return state


def commit_order(events):
    """The commit order the run claims: each engine track's commit
    sequence (the serial engine's, or every shard's), merged into one
    order, or the driver's where only a driver commits (the planner
    family).  The parallel dispatcher's own ``txn.commit`` events list a
    group-commit batch in vote order, which is no serialization order.
    A merge that has no order (two shards committing two transactions
    in opposite orders) raises ``ValueError``."""
    per_track = {}
    for event in events:
        if event.name == "txn.commit":
            per_track.setdefault(event.track, []).append(event.args["txn"])
    tracks = [track for track in per_track if track != "driver"]
    sequences = [per_track[t] for t in tracks or ("driver",) if t in per_track]
    graph = Digraph(dict.fromkeys(t for seq in sequences for t in seq))
    for seq in sequences:
        for before, after in zip(seq, seq[1:]):
            if before != after:
                graph.add_arc(before, after)
    return graph.topological_sort()


def graph_order(events, committed):
    """A topological order of the run's global serialization graph.

    Versions are ordered by install position per entity (each entity
    lives on one track), reads by the reads-from edges the trace
    records; a committed attempt is the one whose commit on the same
    track names its ``seq`` (attempt numbers are per engine; a backend
    that runs each transaction once names none).
    """
    seq = {
        (e.track, e.args["txn"]): e.args["seq"]
        for e in events
        if e.name == "txn.commit" and "seq" in e.args
    }
    reads, installed = [], {}
    for e in events:
        txn = e.args.get("txn")
        if e.name not in ("txn.read", "txn.write") or txn not in committed:
            continue
        if seq.get((e.track, txn), e.args["seq"]) != e.args["seq"]:
            continue
        if e.name == "txn.write":
            installed.setdefault(e.args["entity"], []).append(
                (e.args["pos"], txn)
            )
        else:
            reads.append((txn, e.args["entity"], e.args["writer"]))
    graph = Digraph(sorted(committed))
    position = {}
    for entity, versions in installed.items():
        versions.sort()
        for (_, a), (_, b) in zip(versions, versions[1:]):
            if a != b:
                graph.add_arc(a, b)
        for pos, txn in versions:
            position.setdefault((txn, entity), pos)
    for reader, entity, writer in reads:
        if writer == reader:
            continue
        at = position.get((writer, entity), -1)
        if writer != T_INIT:
            graph.add_arc(writer, reader)
        for pos, other in installed.get(entity, ()):
            if other in (writer, reader):
                continue
            if pos < at:
                graph.add_arc(other, writer)
            else:
                graph.add_arc(reader, other)
    return graph.topological_sort()


@contextlib.contextmanager
def built_stores():
    """Every :class:`MultiversionStore` constructed inside the block."""
    stores = []
    honest = MultiversionStore.__init__

    def init(self, *args, **kwargs):
        honest(self, *args, **kwargs)
        stores.append(self)

    MultiversionStore.__init__ = init
    try:
        yield stores
    finally:
        MultiversionStore.__init__ = honest


def run_and_check(scenario, mode, scheduler, **options):
    options.setdefault("workers", 2)
    if scheduler is not None:
        options["scheduler"] = scheduler
    tracer = Tracer(capacity=None)
    with built_stores() as stores:
        report = Database().run(
            scenario,
            RunConfig(mode=mode, audit=True, trace=tracer, **options),
            txns=len(scenario.stream),
        )
    label = (mode, scheduler, options)
    assert report.audit.ok, (label, report.audit.format())
    assert report.invariant_ok and report.invariant_checked, label
    assert stores and all(s.placeholder_count() == 0 for s in stores), label
    events = tracer.events
    committed = {e.args["txn"] for e in events if e.name == "txn.commit"}
    assert len(committed) == report.committed, label
    tiers = report.audit.tiers
    try:
        if tiers["graph"] or tiers["search"]:
            raise ValueError("the commit order is no witness")
        order = commit_order(events)
    except ValueError:
        try:
            order = graph_order(events, committed)
        except ValueError:
            pytest.fail(f"{label}: no global serialization order")
    final = {**scenario.initial_state(), **report.final_state}
    assert final == serial_replay(scenario, order), (label, order)
    return report


@pytest.mark.parametrize(
    "mode, scheduler",
    [pytest.param(m, s, id=f"{m}-{s}" if s else m) for m, s in RUNS],
)
@example(LATE_WRITE_UNDER_YOUNGER_READER, 0, 2)
@example(OWN_WRITE_REREAD, 0, 2)
@example(READER_BETWEEN_TWO_WRITERS, 0, 2)
@given(streams(), st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=4))
@BUDGET
def test_run_equals_serial_replay(mode, scheduler, scenario, seed, workers):
    options = {"seed": seed, "workers": workers}
    if "deterministic" in get_backend(mode).defaults and mode != "serial":
        options["deterministic"] = True
    run_and_check(scenario, mode, scheduler, **options)


PARALLEL = tuple(s for m, s in RUNS if m == "parallel")

#: the shard runtime under seeded completion orders: fewer examples
#: per seed, ten seeds.
SEEDED_BUDGET = settings(
    BUDGET, max_examples=8,
    suppress_health_check=[
        HealthCheck.too_slow, HealthCheck.function_scoped_fixture,
    ],
)


@pytest.mark.parametrize("order_seed", range(10))
@pytest.mark.parametrize("scheduler", PARALLEL)
@example(LATE_WRITE_UNDER_YOUNGER_READER, 0, 2)
@example(READER_BETWEEN_TWO_WRITERS, 0, 2)
@given(streams(), st.integers(min_value=0, max_value=3),
       st.integers(min_value=1, max_value=4))
@SEEDED_BUDGET
def test_parallel_under_seeded_completion_order(
    order_seed, scheduler, scenario, seed, workers
):
    with install(SeededOrder(order_seed)):
        run_and_check(
            scenario, "parallel", scheduler, seed=seed, workers=workers,
            deterministic=True,
        )
