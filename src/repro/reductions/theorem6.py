"""Theorem 6: the adaptive construction against a concrete scheduler.

No polynomial-time scheduler recognizes a maximal OLS subset of MVCSR
(unless P = NP).  The proof interrogates the scheduler while building the
schedule: for each choice ``b = (j, k, i)`` of the polygraph it submits a
segment ``W_k(b) W_i(b) R_j(b)`` and inspects the version the scheduler
assigns to the read.

* If the scheduler assigns ``b_i`` — done: the segment encodes "``T_j``
  reads ``b`` from ``T_i``; ``T_k`` goes before ``T_i`` or after ``T_j``".
* If it assigns ``b_k``, the writes are re-issued in the swapped order
  (fresh entity), after which a deterministic scheduler lands on ``b_i``.
* If it assigns ``b_0``, a forcing prefix ``R_i(b') W_j(b')`` (fresh
  entity ``b'``) is added: ``R_i(b')`` can only read ``b'`` from ``T0``,
  which places ``T_i`` before ``T_j`` in every serialization and removes
  ``b_0`` from the menu; the segment is then re-tried.

Finally, per arc ``a = (i, j)`` the segment ``R_i(a) W_j(a)`` encodes the
arc itself.  ``MVCG(s)`` is the arc graph ``(N, A)``, acyclic by
assumption, so ``s`` is always MVCSR — a *maximal* scheduler accepts
``s`` iff the polygraph is acyclic, which is what makes maximality
NP-hard.  Non-maximal efficient schedulers (MVTO, the eager MVCG
scheduler) satisfy only the forward direction: whenever they accept, the
polygraph is acyclic; benchmark E8 measures the gap.

Because the adversary may retract probe segments, the target scheduler is
re-run from scratch on each candidate prefix (schedulers here are
deterministic and resettable), matching the proof's "delete ... and add"
moves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.graphs.polygraph import Polygraph
from repro.model.schedules import Schedule, T_INIT
from repro.model.steps import Step, TxnId, read, write
from repro.reductions.theorem4 import _arc_entity
from repro.schedulers.base import Scheduler, source_txn_of_last_read


@dataclass
class AdaptiveResult:
    """Outcome of the Theorem 6 interaction."""

    schedule: Schedule
    accepted: bool
    #: source transaction the scheduler assigned per choice entity.
    forced_sources: dict[str, TxnId] = field(default_factory=dict)
    #: number of probe segments that had to be rewritten.
    rewrites: int = 0


def _probe(
    make_scheduler: Callable[[], Scheduler], steps: list[Step]
) -> tuple[bool, TxnId | None]:
    """Run a fresh scheduler on ``steps``; source assigned to last read.

    Returns (all accepted, source txn of the final read or None).
    """
    scheduler = make_scheduler()
    if not scheduler.accepts(Schedule(tuple(steps))):
        return False, None
    return True, source_txn_of_last_read(scheduler)


def theorem6_adaptive_construction(
    poly: Polygraph,
    make_scheduler: Callable[[], Scheduler],
    max_rewrites_per_choice: int = 4,
) -> AdaptiveResult:
    """Build the adversarial schedule against ``make_scheduler``.

    The polygraph must have acyclic first branches and arcs (assumptions
    (b) and (c)) and node-disjoint choices — exactly the shape produced by
    the SAT reduction.  Property (a) is *not* required here: unlike
    Theorem 4, the proof starts from the raw reduction polygraph, whose
    wiring arcs carry no choices (and normalizing with
    :meth:`Polygraph.ensure_property_a` would break node-disjointness).
    """
    if not poly.first_branch_graph().is_acyclic():
        raise ValueError("first branches of the choices must be acyclic (b)")
    if not poly.arc_graph().is_acyclic():
        raise ValueError("the arc graph (N, A) must be acyclic (c)")
    if not poly.choices_node_disjoint():
        raise ValueError("Theorem 6 requires node-disjoint choices")

    steps: list[Step] = []
    forced: dict[str, TxnId] = {}
    rewrites = 0
    fresh = 0

    for j, k, i in sorted(poly.choices, key=repr):
        placed = False
        attempt_steps = list(steps)
        for attempt in range(max_rewrites_per_choice):
            fresh += 1
            entity = f"b[{j},{k},{i}]#{fresh}"
            for first, second in ((k, i), (i, k)):
                candidate = attempt_steps + [
                    write(first, entity),
                    write(second, entity),
                    read(j, entity),
                ]
                ok, source = _probe(make_scheduler, candidate)
                if ok and source == i:
                    steps = candidate
                    forced[entity] = source
                    placed = True
                    break
                rewrites += 1
            if placed:
                break
            # The scheduler insists on T0 (or keeps picking T_k): force
            # T_i before T_j so that reading from T0 stops serializing.
            fresh += 1
            forcing_entity = f"b'[{j},{k},{i}]#{fresh}"
            attempt_steps = attempt_steps + [
                read(i, forcing_entity),
                write(j, forcing_entity),
            ]
        if not placed:
            raise RuntimeError(
                f"scheduler refused to read b from T_{i} for choice "
                f"{(j, k, i)} after {max_rewrites_per_choice} rewrites"
            )

    for (i, j) in sorted(poly.arcs, key=repr):
        steps += [read(i, _arc_entity(i, j)), write(j, _arc_entity(i, j))]

    schedule = Schedule(tuple(steps))
    scheduler = make_scheduler()
    accepted = scheduler.accepts(schedule)
    return AdaptiveResult(schedule, accepted, forced, rewrites)
