"""View serializability (VSR) — NP-complete.

A schedule is VSR iff it is view-equivalent (identical READ-FROM
relations, including the final transaction's reads) to some serial
schedule of the same transactions.  Two exact deciders:

* :func:`find_vsr_serialization` — depth-first search over serial orders
  with aggressive pruning (the reference decider);
* :func:`is_vsr_polygraph` — the classical polygraph characterisation
  ([Papadimitriou 79]): the padded schedule's polygraph is acyclic iff
  the schedule is VSR.

Both are exponential in the worst case, as they must be unless P = NP.
"""

from __future__ import annotations

from repro.graphs.polygraph import Polygraph
from repro.model.readfrom import read_from_map
from repro.model.schedules import Schedule, T_FINAL, T_INIT
from repro.model.steps import Entity, TxnId


def _own_read_violations(schedule: Schedule) -> bool:
    """Detect reads that any serial order forces to be own-reads but whose
    standard source in the schedule is another transaction.

    If ``T`` writes ``x`` and later reads ``x`` (in its own step order),
    then in *every* serial schedule that read returns ``T``'s own write;
    if the standard source in ``s`` differs, ``s`` cannot be VSR.
    """
    sources = read_from_map(schedule)
    for txn in schedule.txn_ids:
        own_written: set[Entity] = set()
        for i in schedule.step_indices_of(txn):
            step = schedule[i]
            if step.is_write:
                own_written.add(step.entity)
            elif step.entity in own_written and sources[i] != txn:
                return True
    return False


def find_vsr_serialization(schedule: Schedule) -> list[TxnId] | None:
    """A view-equivalent serial order, or None.

    DFS over placements: a transaction can be placed next iff every one of
    its non-own reads would read from the currently last writer of that
    entity, matching its standard source in the schedule; transactions may
    not write an entity after the schedule's final writer of that entity
    has been placed.
    """
    core = schedule.core()
    if _own_read_violations(core):
        return None
    sources = read_from_map(core)
    txns = [t for t in core.txn_ids]
    finals = {e: core.final_writer(e) for e in core.entities}

    # Per transaction: ordered list of (kind, entity, required_source|None).
    profiles: dict[TxnId, list[tuple[str, Entity, TxnId | None]]] = {}
    for t in txns:
        own_written: set[Entity] = set()
        profile: list[tuple[str, Entity, TxnId | None]] = []
        for i in core.step_indices_of(t):
            step = core[i]
            if step.is_write:
                own_written.add(step.entity)
                profile.append(("W", step.entity, None))
            elif step.entity not in own_written:
                profile.append(("R", step.entity, sources[i]))
            # own-reads impose no constraint (checked globally above)
        profiles[t] = profile

    last_writer: dict[Entity, TxnId] = {}
    placed: set[TxnId] = set()
    order: list[TxnId] = []

    def can_place(t: TxnId) -> bool:
        for kind, entity, required in profiles[t]:
            if kind == "R":
                current = last_writer.get(entity, T_INIT)
                if current != required:
                    return False
            else:
                final = finals[entity]
                if final != t and final in placed:
                    return False
        return True

    def place(t: TxnId) -> dict[Entity, TxnId]:
        saved: dict[Entity, TxnId] = {}
        for kind, entity, _req in profiles[t]:
            if kind == "W" and entity not in saved:
                saved[entity] = last_writer.get(entity, T_INIT)
                last_writer[entity] = t
        placed.add(t)
        order.append(t)
        return saved

    def unplace(t: TxnId, saved: dict[Entity, TxnId]) -> None:
        for entity, previous in saved.items():
            last_writer[entity] = previous
        placed.discard(t)
        order.pop()

    def search() -> bool:
        if len(order) == len(txns):
            return True
        for t in txns:
            if t in placed or not can_place(t):
                continue
            saved = place(t)
            if search():
                return True
            unplace(t, saved)
        return False

    if search():
        return list(order)
    return None


def is_vsr(schedule: Schedule) -> bool:
    """View serializability via the pruned search."""
    return find_vsr_serialization(schedule) is not None


def vsr_polygraph(schedule: Schedule) -> Polygraph:
    """The polygraph of the padded schedule ([Papadimitriou 79]).

    Nodes are the transactions plus ``T0`` and ``Tf``; for each READ-FROM
    fact ``(w, x, r)`` there is an arc ``w -> r``, and for every other
    writer ``k`` of ``x`` a choice ``(r, k, w)``: in any view-equivalent
    serial order ``k`` must come before ``w`` or after ``r``.  The final
    transaction's reads encode the final-writer constraints.
    """
    core = schedule.core()
    sources = read_from_map(core)
    txns = list(core.txn_ids)
    writers: dict[Entity, list[TxnId]] = {}
    for e in core.entities:
        ws: list[TxnId] = []
        for w in core.writes_of(e):
            t = core[w].txn
            if t not in ws:
                ws.append(t)
        writers[e] = ws

    poly = Polygraph.of(nodes=txns + [T_INIT, T_FINAL])
    for t in txns:
        poly.add_arc(T_INIT, t)
        poly.add_arc(t, T_FINAL)
    poly.add_arc(T_INIT, T_FINAL)

    facts: set[tuple[TxnId, Entity, TxnId]] = set()
    for t in txns:
        own_written: set[Entity] = set()
        for i in core.step_indices_of(t):
            step = core[i]
            if step.is_write:
                own_written.add(step.entity)
            elif step.entity not in own_written:
                # Own-reads (read after own write) hold in every serial
                # order and contribute no constraint.
                facts.add((sources[i], step.entity, t))
    for e in core.entities:
        facts.add((core.final_writer(e), e, T_FINAL))

    for w, entity, r in sorted(facts, key=repr):
        if w != r:
            poly.add_arc(w, r)
        for k in writers[entity]:
            if k in (w, r):
                continue
            poly.add_choice(r, k, w)
    return poly


def is_vsr_polygraph(schedule: Schedule) -> bool:
    """View serializability via polygraph acyclicity.

    Equivalent to :func:`is_vsr`; the tests cross-check the two on
    exhaustive small schedules.
    """
    core = schedule.core()
    if _own_read_violations(core):
        return False
    return vsr_polygraph(core).is_acyclic()
