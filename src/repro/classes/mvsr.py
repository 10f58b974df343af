"""Multiversion serializability (MVSR) — NP-complete.

A schedule ``s`` is MVSR iff there is a version function ``V`` such that
``(s, V)`` is view-equivalent to ``(r, V_r)`` for some serial ``r``
(paper §2).  Unwinding the definition: ``s`` is MVSR iff there exists a
total order of its transactions such that, for every read, the source that
the *serial* schedule dictates (the last earlier writer of the entity, or
the transaction itself after an own write, or ``T0``) is *realizable* in
``s`` — i.e. that writer has written the entity somewhere before the read
in ``s``.  The final transaction ``Tf`` can always be served the final
serial versions (all writes precede its reads), so it adds no constraint;
this is precisely how multiversion serializability relaxes VSR.

The decider is a DFS over transaction placements with per-read pruning;
:func:`all_mvsr_serializations` enumerates every witness order, which the
OLS machinery uses to intersect version-function signatures.

*Finding* a witness order is the NP-complete part (Theorems 4–5);
*checking* a claimed one is a single pass — :func:`order_serves_fixed`.
:func:`certify_fixed` is the decision arranged around that asymmetry:
check the order the producer of the schedule claims, then one derived
in polynomial time (a topological order of
:func:`mv_serialization_graph`), and search (:func:`is_mvsr_fixed`)
only when both fail.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from repro.graphs.digraph import Digraph
from repro.graphs.polygraph import Polygraph, SearchEffort
from repro.model.schedules import Schedule, T_FINAL, T_INIT
from repro.model.steps import Entity, TxnId
from repro.model.version_functions import VersionFunction


def _read_profiles(
    core: Schedule,
) -> dict[TxnId, list[tuple[str, Entity, int | None]]]:
    """Per transaction, its steps as ('R'|'W', entity, read position).

    Own-reads (reads preceded by an own write of the entity) are dropped:
    they are realizable in every order (transaction order is preserved by
    every shuffle).
    """
    profiles: dict[TxnId, list[tuple[str, Entity, int | None]]] = {}
    for t in core.txn_ids:
        own_written: set[Entity] = set()
        profile: list[tuple[str, Entity, int | None]] = []
        for i in core.step_indices_of(t):
            step = core[i]
            if step.is_write:
                own_written.add(step.entity)
                profile.append(("W", step.entity, None))
            elif step.entity not in own_written:
                profile.append(("R", step.entity, i))
        profiles[t] = profile
    return profiles


def _first_write_position(core: Schedule) -> dict[tuple[TxnId, Entity], int]:
    """Position of each transaction's first write of each entity."""
    out: dict[tuple[TxnId, Entity], int] = {}
    for e in core.entities:
        for w in core.writes_of(e):
            key = (core[w].txn, e)
            if key not in out:
                out[key] = w
    return out


def mvsr_serializations(schedule: Schedule) -> Iterator[list[TxnId]]:
    """Yield every serial order witnessing that ``schedule`` is MVSR.

    A serial order ``r`` is a witness iff the version function it induces
    is realizable in ``s``: every non-own read of every transaction ``t``
    can be served the last earlier writer in ``r`` (its first write of the
    entity must precede the read in ``s``), or ``T0`` when there is none.
    """
    core = schedule.core()
    profiles = _read_profiles(core)
    first_write = _first_write_position(core)
    txns = list(core.txn_ids)

    last_writer: dict[Entity, TxnId] = {}
    placed: set[TxnId] = set()
    order: list[TxnId] = []

    def can_place(t: TxnId) -> bool:
        for kind, entity, read_pos in profiles[t]:
            if kind != "R":
                continue
            source = last_writer.get(entity, T_INIT)
            if source == T_INIT:
                continue  # the initial version is always available
            pos = first_write.get((source, entity))
            if pos is None or pos >= read_pos:
                return False
        return True

    def search() -> Iterator[list[TxnId]]:
        if len(order) == len(txns):
            yield list(order)
            return
        for t in txns:
            if t in placed or not can_place(t):
                continue
            saved: dict[Entity, TxnId] = {}
            for kind, entity, _ in profiles[t]:
                if kind == "W" and entity not in saved:
                    saved[entity] = last_writer.get(entity, T_INIT)
                    last_writer[entity] = t
            placed.add(t)
            order.append(t)
            yield from search()
            order.pop()
            placed.discard(t)
            for entity, previous in saved.items():
                last_writer[entity] = previous

    yield from search()


def find_mvsr_serialization(
    schedule: Schedule,
) -> tuple[list[TxnId], VersionFunction] | None:
    """One witness order together with a serializing version function.

    The version function assigns each non-own read the *latest* write of
    its serial source that still precedes the read in ``s`` (any one would
    do; latest is what a multiversion store would naturally serve), own
    reads the own preceding write, and ``T0`` reads the initial version.
    """
    core = schedule.core()
    for order in mvsr_serializations(core):
        return order, version_function_for_order(core, order)
    return None


def version_function_for_order(
    schedule: Schedule, order: list[TxnId]
) -> VersionFunction:
    """The version function induced by a witness serial order.

    Raises ``ValueError`` if the order is not actually a witness (some
    required source is not realizable).
    """
    core = schedule.core()
    position = {t: k for k, t in enumerate(order)}
    assignments: dict[int, int | str] = {}
    for t in core.txn_ids:
        own_last_write: dict[Entity, int] = {}
        for i in core.step_indices_of(t):
            step = core[i]
            if step.is_write:
                own_last_write[step.entity] = i
                continue
            if step.entity in own_last_write:
                assignments[i] = own_last_write[step.entity]
                continue
            # Serial source: last writer of the entity before t in order.
            source: TxnId = T_INIT
            for other in order[: position[t]]:
                for w in core.writes_of(step.entity):
                    if core[w].txn == other:
                        source = other
                        break
            if source == T_INIT:
                assignments[i] = T_INIT
                continue
            candidates = [
                w
                for w in core.writes_of(step.entity)
                if core[w].txn == source and w < i
            ]
            if not candidates:
                raise ValueError(
                    f"order {order} is not a witness: read at {i} cannot be "
                    f"served a version written by {source}"
                )
            assignments[i] = candidates[-1]
    vf = VersionFunction(assignments)
    vf.validate(core)
    return vf


def all_mvsr_serializations(schedule: Schedule) -> list[list[TxnId]]:
    """All witness orders (exponential; used on small instances)."""
    return list(mvsr_serializations(schedule))


def is_mvsr_fixed(
    schedule: Schedule,
    fixed: Mapping[int, TxnId] | None = None,
    effort: SearchEffort | None = None,
) -> bool:
    """MVSR with (optionally) pinned read sources, via choice search.

    Decides whether a serial order exists in which every non-own read's
    source is the last earlier writer of its entity and is realizable in
    ``s`` — with reads listed in ``fixed`` pinned to the given source
    transaction.  Unlike the order-enumeration DFS this searches the
    *choice* space: selecting source ``w`` for a read by ``t`` contributes
    the precedence arc ``w -> t`` plus, per other writer ``k`` of the
    entity, the polygraph choice "``k`` before ``w`` or after ``t``"; the
    polygraph backtracker's propagation then prunes whole order families
    at once.  This is what makes the Theorem 4/5 instances (dozens of
    transactions, heavily forced reads) tractable.  ``effort`` counts the
    polygraph choices tried over the whole search and, when it carries a
    budget, ends it with :class:`~repro.graphs.polygraph.
    SearchBudgetExceeded`.
    """
    core = schedule.core()
    fixed = fixed or {}

    writers: dict[Entity, list[TxnId]] = {}
    for e in core.entities:
        ws: list[TxnId] = []
        for w in core.writes_of(e):
            if core[w].txn not in ws:
                ws.append(core[w].txn)
        writers[e] = ws

    # Free reads with their realizable candidate sources (latest-first).
    free: list[tuple[TxnId, Entity, list[TxnId]]] = []
    base = Polygraph.of(nodes=list(core.txn_ids) + [T_INIT])
    for t in core.txn_ids:
        base.add_arc(T_INIT, t)

    def constrain(poly: Polygraph, reader: TxnId, entity: Entity, source: TxnId) -> bool:
        """Apply one source selection; False when trivially impossible."""
        if source == T_INIT:
            for k in writers[entity]:
                if k != reader:
                    poly.add_arc(reader, k)
            return True
        poly.add_arc(source, reader)
        for k in writers[entity]:
            if k in (source, reader):
                continue
            poly.add_choice(reader, k, source)
        return True

    for t in core.txn_ids:
        own_written: set[Entity] = set()
        for i in core.step_indices_of(t):
            step = core[i]
            if step.is_write:
                own_written.add(step.entity)
                continue
            if step.entity in own_written:
                if i in fixed and fixed[i] != t:
                    return False  # own-read pinned to a foreign source
                continue
            if i in fixed:
                required = fixed[i]
                if required != T_INIT:
                    positions = [
                        w
                        for w in core.writes_of(step.entity)
                        if core[w].txn == required and w < i
                    ]
                    if not positions:
                        return False  # pinned source not realizable
                constrain(base, t, step.entity, required)
                continue
            candidates: list[TxnId] = []
            for w in range(i - 1, -1, -1):
                prior = core[w]
                if (
                    prior.is_write
                    and prior.entity == step.entity
                    and prior.txn != t
                    and prior.txn not in candidates
                ):
                    candidates.append(prior.txn)
            candidates.append(T_INIT)
            free.append((t, step.entity, candidates))

    # Most-constrained reads first.
    free.sort(key=lambda item: len(item[2]))

    def search(index: int, poly: Polygraph) -> bool:
        if poly.acyclic_selection(effort) is None:
            return False
        if index == len(free):
            return True
        reader, entity, candidates = free[index]
        for source in candidates:
            trial = Polygraph.of(poly.nodes, poly.arcs, poly.choices)
            constrain(trial, reader, entity, source)
            if search(index + 1, trial):
                return True
        return False

    return search(0, base)


def order_serves_fixed(
    schedule: Schedule, order: Sequence[TxnId], fixed: Mapping[int, TxnId]
) -> bool:
    """Is ``order`` a witness for :func:`is_mvsr_fixed`?  One pass.

    Replays the transactions serially in ``order``, keeping the last
    writer of each entity: every read must find there the source
    ``fixed`` pins it to (an unpinned read takes what it finds; a read
    after an own write finds its own transaction), and that source must
    be realizable — its first write of the entity precedes the read in
    ``schedule``.  ``order`` must list every transaction exactly once.

    These are exactly the constraints :func:`is_mvsr_fixed` searches an
    order for, so ``True`` here implies ``True`` there: a verified
    witness is sound however the order was guessed.
    """
    core = schedule.core()
    #: entity -> (last writer so far, position of its first write).
    last_writer: dict[Entity, tuple[TxnId, int]] = {}
    placed: set[TxnId] = set()
    replayed = 0
    for t in order:
        if t in placed:
            return False
        placed.add(t)
        for i in core.step_indices_of(t):
            step = core[i]
            replayed += 1
            source, installed = last_writer.get(step.entity, (T_INIT, -1))
            if step.is_write:
                if source != t:
                    last_writer[step.entity] = (t, i)
            elif fixed.get(i, source) != source or installed > i:
                return False
    return replayed == len(core)


def mv_serialization_graph(
    schedule: Schedule, fixed: Mapping[int, TxnId]
) -> Digraph:
    """Bernstein & Goodman's multiversion serialization graph of the
    pinned reads, with install order as the version order.

    Per read of ``x`` pinned to source ``w`` by reader ``t``: the arc
    ``w -> t``, and per other writer ``k`` of ``x`` the arc ``k -> w``
    when ``k`` installed ``x`` before ``w`` did in ``schedule``, else
    ``t -> k`` (a read of the initial version puts every other writer
    after ``t``; a read of an own write adds nothing).  Where no
    transaction writes an entity twice, the ``MVCG(s)`` arc from such a
    read to every later write is among these; ``MVCG`` alone leaves the
    version function free, so its topological orders need not serve the
    *pinned* sources — this graph makes the polygraph choice "``k``
    before ``w`` or after ``t``" up front, the way the store that
    produced the pins did.  When it is acyclic every topological order
    serves the pins.
    """
    core = schedule.core()
    first_write = _first_write_position(core)
    writers: dict[Entity, list[TxnId]] = {}
    for (txn, entity) in first_write:
        writers.setdefault(entity, []).append(txn)
    graph = Digraph(core.txn_ids)
    for i, source in fixed.items():
        step = core[i]
        reader, entity = step.txn, step.entity
        if source == reader:
            continue
        installed = first_write.get((source, entity), -1)
        if source != T_INIT:
            graph.add_arc(source, reader)
        for k in writers.get(entity, ()):
            if k == source or k == reader:
                continue
            if first_write[(k, entity)] < installed:
                graph.add_arc(k, source)
            else:
                graph.add_arc(reader, k)
    return graph


#: the tiers of :func:`certify_fixed`, cheapest first — the one
#: declaration the auditor's tallies, report and telemetry loop over.
TIERS = ("replay", "graph", "search")


def certify_fixed(
    schedule: Schedule,
    fixed: Mapping[int, TxnId],
    claimed: Sequence[TxnId],
    effort: SearchEffort | None = None,
) -> str | None:
    """Decide :func:`is_mvsr_fixed` witness-first; name the tier (one
    of :data:`TIERS`) that did.

    * ``"replay"`` — the ``claimed`` order is a witness, O(steps);
    * ``"graph"`` — a topological order of
      :func:`mv_serialization_graph` is, polynomial (a cycle there
      decides nothing: another version order may still serialize the
      schedule);
    * ``"search"`` — neither was, and the polygraph search found one;
    * ``None`` — the search completed and there is none.

    Only the last tier consumes ``effort`` (and can raise
    :class:`~repro.graphs.polygraph.SearchBudgetExceeded`).  A positive
    answer always rests on a replay-verified order or a completed
    search, so it equals :func:`is_mvsr_fixed`'s.
    """
    if order_serves_fixed(schedule, claimed, fixed):
        return "replay"
    try:
        derived = mv_serialization_graph(schedule, fixed).topological_sort()
    except ValueError:  # a cycle under install order: no order to try
        derived = None
    if derived is not None and order_serves_fixed(schedule, derived, fixed):
        return "graph"
    if is_mvsr_fixed(schedule, fixed, effort):
        return "search"
    return None


def is_mvsr(schedule: Schedule) -> bool:
    """Multiversion serializability (exact; NP-complete in general).

    Uses the choice-space decider, which subsumes the order-enumeration
    DFS and stays fast on the large forced-read instances of the
    Theorem 4/5 constructions.
    """
    return is_mvsr_fixed(schedule, {})
