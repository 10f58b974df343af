"""The deferred-constraint multiversion scheduler.

The most accepting *online* scheduler in this package, sitting between
the eager MVCG scheduler and the (omniscient) maximal oracle.  Like every
online multiversion scheduler it must commit a version the moment it
accepts a read — but unlike the eager scheduler it does not also commit a
total order:

* committing source ``T_j`` for a read of ``x`` by ``T_i`` records the
  precedence ``j -> i`` plus, for every *other* writer ``k`` of ``x``
  seen so far, the deferred binary constraint "``k`` before ``j`` or
  after ``i``" — a polygraph choice, resolved only when forced;
* a later write ``W_k(x)`` adds the same constraint against every
  committed read of ``x`` (and the ordinary MVCG arc for reads that
  precede it).

A step is accepted iff the polygraph stays acyclic (the backtracking
decider with propagation).  Keeping the constraints in choice form is
exactly what distinguishes this scheduler from the eager one, which
resolves every choice to "``k`` before ``j``" on the spot; the §4 pair
still separates it from the clairvoyant recognizer (no online scheduler
can accept both, Theorem 4), but it accepts strictly more streams than
the eager scheduler — measured in benchmark E10.

The per-step acyclicity test is NP-complete in general; on schedule-sized
instances the propagation makes it fast, but the worst case is the price
Theorem 6 says *some* part of a near-maximal scheduler must pay.
"""

from __future__ import annotations

from repro.graphs.polygraph import Polygraph
from repro.model.schedules import Schedule, T_INIT
from repro.model.steps import Entity, Step, TxnId
from repro.schedulers.base import Scheduler


class PolygraphScheduler(Scheduler):
    """Online multiversion scheduler with deferred order constraints."""

    name = "polygraph"
    chooses_versions = True

    def __init__(self, prefer_latest: bool = True) -> None:
        super().__init__()
        self._prefer_latest = prefer_latest
        self._poly = Polygraph()
        self._poly.add_node(T_INIT)
        #: committed (reader, source) per entity, for future writers.
        self._commitments: dict[Entity, list[tuple[TxnId, TxnId]]] = {}
        #: writers of each entity seen so far, with last write position.
        self._writers: dict[Entity, list[tuple[TxnId, int]]] = {}

    def _reset(self) -> None:
        self._poly = Polygraph()
        self._poly.add_node(T_INIT)
        self._commitments = {}
        self._writers = {}

    def _constrain_read(
        self, poly: Polygraph, reader: TxnId, entity: Entity, source: TxnId
    ) -> None:
        """Arcs + deferred choices induced by committing one source."""
        writers = [t for t, _pos in self._writers.get(entity, ())]
        if source == T_INIT:
            for k in writers:
                if k != reader:
                    poly.add_arc(reader, k)
            return
        poly.add_arc(source, reader)
        for k in writers:
            if k not in (source, reader):
                poly.add_choice(reader, k, source)

    def _accept(self, step: Step) -> bool:
        txn, entity = step.txn, step.entity
        self._poly.add_node(txn)
        self._poly.add_arc(T_INIT, txn)
        position = len(self.accepted_steps)
        if step.is_read:
            writers = self._writers.get(entity, [])
            own = [pos for t, pos in writers if t == txn]
            if own:
                self._assignments[position] = own[-1]
                return True
            candidates: list[tuple[TxnId, int | str]] = [
                (t, pos) for t, pos in writers if t != txn
            ]
            # Dedupe by transaction, keeping its latest write position.
            by_txn: dict[TxnId, int] = {}
            for t, pos in candidates:
                by_txn[t] = pos
            ordered = sorted(
                by_txn.items(), key=lambda item: item[1], reverse=True
            )
            menu: list[tuple[TxnId, int | str]] = list(ordered) + [
                (T_INIT, T_INIT)
            ]
            if not self._prefer_latest:
                menu.reverse()
            for source, src_pos in menu:
                trial = Polygraph.of(
                    self._poly.nodes, self._poly.arcs, self._poly.choices
                )
                self._constrain_read(trial, txn, entity, source)
                if trial.acyclic_selection() is not None:
                    self._poly = trial
                    self._commitments.setdefault(entity, []).append(
                        (txn, source)
                    )
                    self._assignments[position] = src_pos
                    return True
            return False
        # Write: every committed read of this entity gains the deferred
        # constraint against the new writer.
        trial = Polygraph.of(
            self._poly.nodes, self._poly.arcs, self._poly.choices
        )
        for reader, source in self._commitments.get(entity, ()):
            if txn in (reader, source):
                continue
            if source == T_INIT:
                trial.add_arc(reader, txn)
            else:
                trial.add_choice(reader, txn, source)
        if trial.acyclic_selection() is None:
            return False
        self._poly = trial
        self._writers.setdefault(entity, []).append((txn, position))
        return True

    def serialization_order(self) -> list[TxnId] | None:
        """A serial order consistent with everything committed so far."""
        selection = self._poly.acyclic_selection()
        if selection is None:
            return None
        order = self._poly.compatible_digraph(selection).topological_sort()
        return [t for t in order if t != T_INIT]
