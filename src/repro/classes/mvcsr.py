"""Multiversion conflict serializability (MVCSR) — polynomial time.

The paper's central positive concept (§3).  Two steps *multiversion-
conflict* iff the first is a read and the second a write of the same
entity.  ``s`` is MVCSR iff there is a serial ``r`` such that every
multiversion-conflicting pair of ``s`` appears in the same order in ``r``.

* **Theorem 1**: ``s`` is MVCSR iff the multiversion conflict graph
  ``MVCG(s)`` is acyclic — :func:`is_mvcsr` (polynomial).
* **Theorem 2**: ``s`` is MVCSR iff some serial schedule is reachable from
  ``s`` by swapping adjacent non-conflicting steps —
  :func:`is_mvcsr_by_swaps` (exponential; cross-check oracle).
* **Theorem 3**: MVCSR implies MVSR; :func:`mvcsr_version_function`
  constructs the serializing version function exactly as the proof does.
"""

from __future__ import annotations

from collections import deque

from repro.graphs.conflict_graph import build_mv_conflict_graph
from repro.graphs.digraph import Digraph
from repro.model.schedules import Schedule, T_FINAL, T_INIT
from repro.model.steps import TxnId, conflicts_multiversion
from repro.model.version_functions import VersionFunction
from repro.classes.mvsr import version_function_for_order
from repro.classes.serial import is_serial


def mv_conflict_graph(schedule: Schedule) -> Digraph:
    """``MVCG(s)``: arc ``T_i -> T_j`` iff ``W_j(x)`` follows ``R_i(x)``."""
    return build_mv_conflict_graph(schedule.core())


def is_mvcsr(schedule: Schedule) -> bool:
    """Theorem 1: MVCSR iff the multiversion conflict graph is acyclic."""
    return mv_conflict_graph(schedule).is_acyclic()


def mvcsr_serialization(schedule: Schedule) -> list[TxnId] | None:
    """A multiversion-conflict-equivalent serial order (topological sort
    of the MVCG), or None when the schedule is not MVCSR."""
    graph = mv_conflict_graph(schedule)
    if graph.has_cycle():
        return None
    return graph.topological_sort()


def mvcsr_version_function(schedule: Schedule) -> VersionFunction | None:
    """The serializing version function from the proof of Theorem 3.

    For an MVCSR schedule, take any topological order ``r`` of the MVCG;
    whenever ``T_i`` reads ``x`` from ``T_j`` in ``(r, V_r)``, the write
    ``W_j(x)`` precedes ``R_i(x)`` in ``s`` (otherwise ``MVCG`` would have
    the arc ``i -> j`` putting ``i`` before ``j``), so ``V`` may assign it.
    Returns None when the schedule is not MVCSR.
    """
    core = schedule.core()
    order = mvcsr_serialization(core)
    if order is None:
        return None
    return version_function_for_order(core, order)


def mv_conflict_equivalent(first: Schedule, second: Schedule) -> bool:
    """Is ``first`` multiversion-conflict-equivalent to ``second``?

    All multiversion-conflicting pairs of ``first`` must appear in the
    same order in ``second``.  Note the asymmetry (the relation is *not*
    symmetric): pairs that conflict in ``second`` but not in ``first`` are
    unconstrained.
    """
    # Match step occurrences between the schedules: per (txn), the k-th
    # step of the transaction in `first` corresponds to the k-th in
    # `second`; both must be shuffles of the same system.
    if sorted(map(str, first.transaction_system().transactions)) != sorted(
        map(str, second.transaction_system().transactions)
    ):
        return False
    occurrence_position: dict[tuple, int] = {}
    counters: dict[tuple, int] = {}
    for pos, step in enumerate(second):
        k = counters.get((step.txn,), 0)
        counters[(step.txn,)] = k + 1
        occurrence_position[(step.txn, k)] = pos

    counters = {}
    first_occurrence: list[tuple] = []
    for step in first:
        k = counters.get((step.txn,), 0)
        counters[(step.txn,)] = k + 1
        first_occurrence.append((step.txn, k))

    steps = first.steps
    for i in range(len(steps)):
        for j in range(i + 1, len(steps)):
            if conflicts_multiversion(steps[i], steps[j]):
                pi = occurrence_position[first_occurrence[i]]
                pj = occurrence_position[first_occurrence[j]]
                if pi > pj:
                    return False
    return True


def neighbours_by_swap(schedule: Schedule) -> list[Schedule]:
    """All schedules one legal swap away (the ``~`` relation of Theorem 2).

    A swap exchanges two adjacent steps of *different* transactions that
    do not multiversion-conflict in their current order.
    """
    out = []
    for i in range(len(schedule) - 1):
        a, b = schedule[i], schedule[i + 1]
        if a.txn == b.txn:
            continue
        if conflicts_multiversion(a, b):
            continue
        out.append(schedule.swap(i))
    return out


def is_mvcsr_by_swaps(schedule: Schedule, max_states: int = 500_000) -> bool:
    """Theorem 2 decider: BFS over swap-reachable schedules for a serial one.

    Exponential in general; raises ``RuntimeError`` past ``max_states`` so
    callers cannot silently misuse it on large schedules.
    """
    core = schedule.core()
    if is_serial(core):
        return True
    seen = {core.steps}
    frontier = deque([core])
    while frontier:
        current = frontier.popleft()
        for nxt in neighbours_by_swap(current):
            if nxt.steps in seen:
                continue
            if is_serial(nxt):
                return True
            seen.add(nxt.steps)
            frontier.append(nxt)
            if len(seen) > max_states:
                raise RuntimeError(
                    f"swap search exceeded {max_states} states; "
                    "use is_mvcsr (Theorem 1) instead"
                )
    return False
