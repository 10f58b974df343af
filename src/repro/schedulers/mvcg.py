"""MVCG-based schedulers — the paper's "generic multiversion scheduler".

The Discussion section announces a generic scheduler built on MVCSR, "of
which all known (multi- or single-version) schedulers are specializations".
Two variants are implemented, separated by exactly the on-line version-
assignment problem that Sections 4-5 prove fundamental:

* :class:`MVCGScheduler` (clairvoyant): maintains the multiversion
  conflict graph incrementally and accepts a step iff the graph stays
  acyclic.  It recognizes *exactly* MVCSR (the class is prefix-closed),
  but it can only produce its serializing version function at
  end-of-stream, via Theorem 3's topological construction.  Because MVCSR
  is not OLS (§4), no on-the-spot assignment can exist for it.

* :class:`EagerMVCGScheduler` (on-line): additionally commits a version to
  every read when accepting it — the greedy "read the latest version"
  policy — and records the ordering constraints that commitment implies as
  extra graph arcs.  It therefore recognizes a proper OLS subset of MVCSR:
  of the paper's §4 pair it accepts ``s`` but rejects ``s'``.
"""

from __future__ import annotations

from repro.graphs.digraph import Digraph
from repro.model.schedules import Schedule, T_INIT
from repro.model.steps import Entity, Step, TxnId
from repro.model.version_functions import Source, VersionFunction
from repro.classes.mvsr import version_function_for_order
from repro.schedulers.base import Scheduler


def _add_arcs_into(graph: Digraph, tails, head: TxnId) -> bool:
    """Add ``tail -> head`` for every tail unless that closes a cycle.

    ``graph`` is acyclic and every new arc ends at ``head``, so a cycle
    appears iff ``head`` already reaches a tail — tested on the graph as
    it stands; the arcs go in only after the decision.
    """
    tails = [tail for tail in tails if tail != head]
    for tail in tails:
        if graph.would_close_cycle(tail, head):
            return False
    graph.add_node(head)
    for tail in tails:
        graph.add_arc(tail, head)
    return True


class MVCGScheduler(Scheduler):
    """Clairvoyant MVCG tester: accepts exactly the MVCSR prefixes."""

    name = "mvcg"
    #: Chooses, but only at end-of-stream: nothing is recorded per read.
    chooses_versions = True

    def __init__(self) -> None:
        super().__init__()
        self._graph = Digraph()
        self._readers: dict[Entity, set[TxnId]] = {}

    def _reset(self) -> None:
        self._graph = Digraph()
        self._readers = {}

    def _accept(self, step: Step) -> bool:
        txn, entity = step.txn, step.entity
        if step.is_read:
            self._graph.add_node(txn)
            self._readers.setdefault(entity, set()).add(txn)
            return True
        return _add_arcs_into(
            self._graph, self._readers.get(entity, ()), txn
        )

    def version_function(self) -> VersionFunction:
        """Theorem 3's serializing version function — end-of-stream only.

        This is what makes the scheduler clairvoyant rather than on-line:
        the assignment follows the topological order of the *final* MVCG.
        """
        prefix = Schedule(tuple(self.accepted_steps))
        order = [
            t for t in self._graph.topological_sort() if t in prefix.txn_ids
        ]
        return version_function_for_order(prefix, order)

    def source_of_read(self, position: int) -> Source:
        return self.version_function()[position]


class EagerMVCGScheduler(Scheduler):
    """On-line MVCG scheduler with greedy read-latest version assignment.

    On a read of ``x`` by ``T_i`` it commits the source: the latest writer
    ``T_j`` of ``x`` accepted so far (or the initial version).  The
    commitment means ``T_j`` must precede ``T_i`` and every other current
    writer of ``x`` must precede ``T_j`` in the eventual serialization, so
    those arcs join the conflict arcs in the graph; future writers of
    ``x`` land after ``T_i`` through the ordinary MVCG arcs.  A step is
    accepted iff the combined graph stays acyclic.
    """

    name = "mvcg-eager"
    chooses_versions = True

    def __init__(self) -> None:
        super().__init__()
        self._graph = Digraph()
        self._readers: dict[Entity, set[TxnId]] = {}
        self._writers: dict[Entity, list[tuple[TxnId, int]]] = {}

    def _reset(self) -> None:
        self._graph = Digraph()
        self._readers = {}
        self._writers = {}

    def _accept(self, step: Step) -> bool:
        txn, entity = step.txn, step.entity
        graph = self._graph
        position = len(self.accepted_steps)
        if step.is_write:
            # Ordinary MVCG arcs from earlier readers.
            if not _add_arcs_into(graph, self._readers.get(entity, ()), txn):
                return False
            self._writers.setdefault(entity, []).append((txn, position))
            return True
        writers = self._writers.get(entity, [])
        own = [pos for t, pos in writers if t == txn]
        assignment: Source = T_INIT
        if own:
            # Own read: served the own latest write, no new constraint.
            assignment = own[-1]
        elif writers:
            source, assignment = writers[-1]
            others = [other for other, _ in writers if other != source]
            # Two heads: ``source -> txn`` and ``other -> source``.  A
            # cycle uses at most one new arc into each, so it needs an
            # old path from txn to source, from source to some other, or
            # (through both new arcs) from txn to some other.
            if graph.would_close_cycle(source, txn) or any(
                graph.would_close_cycle(other, source)
                or graph.would_close_cycle(other, txn)
                for other in others
            ):
                return False
            graph.add_arc(source, txn)
            for other in others:
                graph.add_arc(other, source)
        graph.add_node(txn)
        self._readers.setdefault(entity, set()).add(txn)
        self._assignments[position] = assignment
        return True
