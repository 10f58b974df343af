"""Serialization-graph testing: recognizes exactly CSR.

Maintains the conflict graph of the accepted prefix incrementally; a step
is accepted iff the conflict arcs it introduces keep the graph acyclic.
Because CSR is prefix-closed and the conflict graph of a prefix is a
subgraph of the full one, the accepted set is exactly CSR — the largest
class available to single-version schedulers in polynomial time.

The decision costs what the step touches, not the prefix.  The graph of
an accepted prefix is acyclic, and every arc a step adds ends at the
step's own transaction, so the step closes a cycle iff that transaction
already *reaches* one of the new arcs' tails: one stop-at-target search
per new arc (:meth:`Digraph.would_close_cycle`), bounded by the
transaction's descendants — a one-node search for a transaction that has
only been preceded so far, the common case — and no search at all for a
step that adds no arc.  The step decides first and mutates after, so a
rejected step leaves no trace.

An aborted transaction is retracted in place (:meth:`retract`): its node
leaves with every arc at it, and it leaves the reader and writer lists.
What remains is the conflict graph of the surviving steps, which is what
re-submitting them would build.  ``truncate`` re-derives the prefix (the
base-class reference path).
"""

from __future__ import annotations

from repro.graphs.digraph import Digraph
from repro.model.steps import Entity, Op, Step, TxnId
from repro.schedulers.base import Scheduler

_READ = Op.READ


class SGTScheduler(Scheduler):
    """Incremental conflict-graph tester."""

    name = "sgt"
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
        succ, pred = graph._succ, graph._pred
        preds = pred.get(txn, ())
        is_read = step.op is _READ
        # The arcs the step adds: one from each conflicting transaction
        # that does not precede this one already.  No list holds a
        # transaction twice, so only a write's readers need deduplicating.
        tails = [
            t for t in self._writers.get(entity, ())
            if t != txn and t not in preds
        ]
        if not is_read:
            for t in self._readers.get(entity, ()):
                if t != txn and t not in preds and t not in tails:
                    tails.append(t)
        # The graph so far is acyclic and every new arc ends at ``txn``:
        # the step closes a cycle iff ``txn`` already reaches a tail.
        for tail in tails:
            if graph.would_close_cycle(tail, txn):
                return False
        # The step stands: store the node, the arcs and the entry on the
        # graph's own adjacency.
        if txn not in succ:
            succ[txn] = set()
            pred[txn] = preds = set()
        for tail in tails:
            succ[tail].add(txn)
            preds.add(tail)
        bucket = self._readers if is_read else self._writers
        entry = bucket.get(entity)
        if entry is None:
            bucket[entity] = [txn]
        elif txn not in entry:
            entry.append(txn)
        return True

    def retract(self, removed: list[int]) -> None:
        """Drop the doomed transactions' nodes, arcs and list entries."""
        steps, graph = self.accepted_steps, self._graph
        for position in removed:
            step = steps[position]
            txn, entity = step.txn, step.entity
            if txn in graph:
                graph.remove_node(txn)
            bucket = self._readers if step.op is _READ else self._writers
            entry = bucket.get(entity)
            if entry is not None and txn in entry:
                entry.remove(txn)
                if not entry:
                    del bucket[entity]
        self._retract_log(removed)
        return None
