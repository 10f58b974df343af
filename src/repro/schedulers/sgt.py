"""Serialization-graph testing: recognizes exactly CSR.

Maintains the conflict graph of the accepted prefix incrementally; a step
is accepted iff the conflict arcs it introduces keep the graph acyclic.
Because CSR is prefix-closed and the conflict graph of a prefix is a
subgraph of the full one, the accepted set is exactly CSR — the largest
class available to single-version schedulers in polynomial time.
"""

from __future__ import annotations

from repro.graphs.digraph import Digraph
from repro.model.steps import Entity, Step, TxnId
from repro.schedulers.base import Scheduler


class SGTScheduler(Scheduler):
    """Incremental conflict-graph tester."""

    name = "sgt"
    journaled = True
    #: A conflict-graph cycle can thread through entities on different
    #: shards; per-shard subgraphs would each be acyclic while the union
    #: is not.  The graph is inherently shared state, so the parallel
    #: runtime runs SGT in one shared conflict domain
    #: (:func:`repro.runtime.shared.plan_domains`).
    shard_partitionable = False

    def __init__(self) -> None:
        super().__init__()
        self._graph = Digraph()
        self._readers: dict[Entity, list[TxnId]] = {}
        self._writers: dict[Entity, list[TxnId]] = {}

    def _reset(self) -> None:
        self._graph = Digraph()
        self._readers = {}
        self._writers = {}

    def _accept(self, step: Step) -> bool:
        txn, entity = step.txn, step.entity
        graph = self._graph
        if txn not in graph:
            graph.add_node(txn)
            self._on_undo(graph.remove_node, txn)
        if step.is_read:
            others = self._writers.get(entity, [])
        else:
            others = self._writers.get(entity, []) + self._readers.get(
                entity, []
            )
        # Add the step's conflict arcs in place and test; on a cycle the
        # rejection unwinds the journal, which takes them out again.
        for other in others:
            if other != txn and not graph.has_arc(other, txn):
                graph.add_arc(other, txn)
                self._on_undo(graph.remove_arc, other, txn)
        if graph.has_cycle():
            return False
        bucket = self._readers if step.is_read else self._writers
        entry = self._setdefault(bucket, entity, [])
        if txn not in entry:
            entry.append(txn)
            self._on_undo(entry.pop)
        return True
