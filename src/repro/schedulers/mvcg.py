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
        self._graph.add_node(txn)
        if step.is_read:
            self._readers.setdefault(entity, set()).add(txn)
            return True
        new_arcs = [
            (r, txn) for r in self._readers.get(entity, ()) if r != txn
        ]
        trial = self._graph.copy()
        for tail, head in new_arcs:
            trial.add_arc(tail, head)
        if trial.has_cycle():
            return False
        self._graph = trial
        return True

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
        self._graph.add_node(txn)
        position = len(self.accepted_steps)
        if step.is_read:
            writers = self._writers.get(entity, [])
            own = [pos for t, pos in writers if t == txn]
            if own:
                # Own read: served the own latest write, no new constraint.
                self._readers.setdefault(entity, set()).add(txn)
                self._assignments[position] = own[-1]
                return True
            new_arcs = []
            if writers:
                source, source_pos = writers[-1]
                new_arcs.append((source, txn))
                new_arcs.extend(
                    (other, source) for other, _ in writers if other != source
                )
                assignment: int | str = source_pos
            else:
                assignment = T_INIT
            trial = self._graph.copy()
            for tail, head in new_arcs:
                if tail != head:
                    trial.add_arc(tail, head)
            if trial.has_cycle():
                return False
            self._graph = trial
            self._readers.setdefault(entity, set()).add(txn)
            self._assignments[position] = assignment
            return True
        # Write: ordinary MVCG arcs from earlier readers.
        new_arcs = [
            (r, txn) for r in self._readers.get(entity, ()) if r != txn
        ]
        trial = self._graph.copy()
        for tail, head in new_arcs:
            trial.add_arc(tail, head)
        if trial.has_cycle():
            return False
        self._graph = trial
        self._writers.setdefault(entity, []).append((txn, position))
        return True
