"""A maximal multiversion scheduler (Lemma 1 semantics) — exponential.

Lemma 1: a maximal multiversion scheduler rejects a step only if there is
no serializable completion of the accepted prefix under the read-froms it
has already assigned.  This scheduler implements exactly that test.  It
must know the transaction system up front (it reasons about completions),
and its per-step test is an NP-hard search — which is the *content* of
Theorems 5 and 6: maximal schedulers exist, but not efficient ones.

Completability reduces to a clean order search: a prefix with committed
read sources has an MVSR completion iff there is a total order of all
(declared) transactions in which every committed read's source is exactly
the last earlier writer of its entity (or the transaction itself after an
own write, or ``T0``).  Given such an order, appending the remaining
steps serially in that order always realizes it, so no further
realizability constraints arise.

On accepting a read the scheduler must commit a source *on the spot*;
among the survivors of the completability test it prefers the latest
written version (what a multiversion store would serve by default).
Different preference policies yield different maximal schedulers — there
are infinitely many maximal OLS classes (§5).
"""

from __future__ import annotations

from repro.graphs.polygraph import Polygraph
from repro.model.schedules import Schedule, T_INIT
from repro.model.steps import Entity, Step, TxnId
from repro.model.transactions import TransactionSystem
from repro.schedulers.base import Scheduler


class MaximalOracleScheduler(Scheduler):
    """Accepts a step iff an MVSR completion exists (Lemma 1)."""

    name = "maximal"
    chooses_versions = True

    def __init__(
        self, system: TransactionSystem, prefer_latest: bool = True
    ) -> None:
        super().__init__()
        self._system = system
        #: Commitment policy: which surviving source to pick for a read.
        #: Different policies realize *different* maximal OLS classes —
        #: §5's "infinitely many maximal subsets" made concrete: with
        #: prefer_latest the oracle accepts the §4 schedule ``s`` and
        #: rejects ``s'``; with prefer_latest=False, the reverse.
        self._prefer_latest = prefer_latest
        self._progress: dict[TxnId, int] = {}
        #: committed (reader, entity, source) per read position.
        self._committed: dict[int, tuple[TxnId, Entity, TxnId]] = {}
        #: per txn, entities written so far in the accepted prefix.
        self._own_written: dict[TxnId, set[Entity]] = {}
        #: write positions per (txn, entity) in the accepted prefix.
        self._write_positions: dict[tuple[TxnId, Entity], list[int]] = {}
        # Static: full write sets of the declared transactions.
        self._writers_of: dict[Entity, list[TxnId]] = {}
        for t in system:
            for e in t.write_set:
                self._writers_of.setdefault(e, []).append(t.txn)
        # Static: per txn, its non-own read entities in step order, and
        # whether each read is an own-read, precomputed from the profiles.
        self._profiles: dict[TxnId, list[tuple[str, Entity, bool]]] = {}
        for t in system:
            seen: set[Entity] = set()
            profile: list[tuple[str, Entity, bool]] = []
            for s in t.steps:
                if s.is_write:
                    seen.add(s.entity)
                    profile.append(("W", s.entity, False))
                else:
                    profile.append(("R", s.entity, s.entity in seen))
            self._profiles[t.txn] = profile

    def _reset(self) -> None:
        self._progress = {}
        self._committed = {}
        self._own_written = {}
        self._write_positions = {}

    # -- the Lemma 1 completability test ---------------------------------

    def _completable(
        self, committed: dict[int, tuple[TxnId, Entity, TxnId]]
    ) -> bool:
        """Is there a serial order realizing all committed read sources?

        Encoded as polygraph acyclicity over the declared transactions: a
        committed source ``w`` for a read of ``x`` by ``t`` yields the arc
        ``w -> t`` plus, per other declared writer ``k`` of ``x``, the
        choice "``k`` before ``w`` or after ``t``"; a committed ``T0``
        source forces every other writer after ``t``.  The backtracking
        decider's propagation keeps the per-step test fast in practice —
        it is still NP-hard in general, which is Theorem 5's point.
        """
        poly = Polygraph.of(nodes=[t.txn for t in self._system] + [T_INIT])
        for t in self._system:
            poly.add_arc(T_INIT, t.txn)
        for _position, (reader, entity, source) in committed.items():
            others = [
                k
                for k in self._writers_of.get(entity, ())
                if k not in (source, reader)
            ]
            if source == T_INIT:
                for k in others:
                    poly.add_arc(reader, k)
                continue
            poly.add_arc(source, reader)
            for k in others:
                poly.add_choice(reader, k, source)
        return poly.acyclic_selection() is not None

    # -- the scheduler protocol ----------------------------------------------

    def _accept(self, step: Step) -> bool:
        txn, entity = step.txn, step.entity
        if txn not in self._system:
            raise ValueError(f"unknown transaction {txn!r}")
        k = self._progress.get(txn, 0)
        profile = self._profiles[txn]
        if k >= len(profile):
            raise ValueError(f"transaction {txn!r} has no step {k}")
        kind = "R" if step.is_read else "W"
        if (kind, entity) != profile[k][:2]:
            raise ValueError(
                f"step {step} does not match declared profile of {txn!r}"
            )
        position = len(self.accepted_steps)
        if step.is_write:
            self._progress[txn] = k + 1
            self._own_written.setdefault(txn, set()).add(entity)
            self._write_positions.setdefault((txn, entity), []).append(
                position
            )
            return True
        if profile[k][2]:  # own-read: source forced, always consistent
            self._progress[txn] = k + 1
            self._assignments[position] = self._write_positions[
                (txn, entity)
            ][-1]
            return True
        # Candidate sources in policy order.
        candidates: list[TxnId] = []
        seen: set[TxnId] = set()
        for prior in range(position - 1, -1, -1):
            s = self.accepted_steps[prior]
            if s.is_write and s.entity == entity and s.txn not in seen:
                seen.add(s.txn)
                candidates.append(s.txn)
        candidates.append(T_INIT)
        if not self._prefer_latest:
            candidates.reverse()
        for source in candidates:
            trial = dict(self._committed)
            trial[position] = (txn, entity, source)
            if self._completable(trial):
                self._committed = trial
                if source == T_INIT:
                    self._assignments[position] = T_INIT
                else:
                    self._assignments[position] = self._write_positions[
                        (source, entity)
                    ][-1]
                self._progress[txn] = k + 1
                return True
        return False
