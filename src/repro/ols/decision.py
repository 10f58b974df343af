"""Exact decision procedure for on-line schedulability (OLS).

The key reduction to a finite check: for a finite set ``S``, the OLS
condition needs to be verified only at each subset's *longest* common
prefix.  If ``p' <= p`` and the extension sets coincide (``S_{p'} =
S_p``), a version function witnessing the condition at ``p`` restricts to
one at ``p'``; and the extension set of any prefix equals the extension
set of the longest common prefix of its members.  So it suffices to check

* every schedule alone is MVSR (prefix = the schedule itself), and
* at each branching prefix, some *signature* — an assignment of source
  transactions to the prefix's reads — is realizable by an MVSR witness
  order of every member.

Transaction granularity is faithful: view equivalence only constrains
which transaction a read reads from, and any write step of that
transaction preceding the read (there is one inside the shared prefix
whenever the source is not ``T0``) realizes the assignment.

The search is organized as a DFS over the signature space with a
per-schedule constrained-witness feasibility check at every partial
assignment, so it prunes hard; the problem is NP-complete (Theorem 4), so
exponential worst-case behaviour is expected and demonstrated in E6.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.readfrom import serial_read_from_sources
from repro.model.schedules import Schedule, T_INIT
from repro.model.steps import Entity, TxnId
from repro.model.version_functions import VersionFunction
from repro.classes.mvsr import is_mvsr_fixed, mvsr_serializations

#: A signature: per non-own read position in the prefix, its source txn.
Signature = tuple[tuple[int, TxnId], ...]


def _non_own_reads(schedule: Schedule, limit: int | None = None) -> list[int]:
    """Read positions whose source is a free choice (not own-reads)."""
    out = []
    own_written: dict[TxnId, set[Entity]] = {}
    end = len(schedule) if limit is None else min(limit, len(schedule))
    for i in range(end):
        step = schedule[i]
        seen = own_written.setdefault(step.txn, set())
        if step.is_write:
            seen.add(step.entity)
        elif step.entity not in seen:
            out.append(i)
    return out


def witness_exists(schedule: Schedule, fixed: dict[int, TxnId]) -> bool:
    """Does an MVSR witness order exist honoring fixed read sources?

    ``fixed`` maps (non-own) read positions to required source
    transactions; unmentioned reads are unconstrained.  Delegates to the
    choice-space decider, which scales to the Theorem 4 instances.
    """
    return is_mvsr_fixed(schedule, fixed)


def _source_candidates(
    prefix: Schedule, read_pos: int
) -> list[TxnId]:
    """Candidate sources for a prefix read: prior writers then ``T0``.

    Later writers first — the order a multiversion store would prefer —
    purely as a search heuristic.
    """
    entity = prefix[read_pos].entity
    out: list[TxnId] = []
    for w in range(read_pos - 1, -1, -1):
        step = prefix[w]
        if step.is_write and step.entity == entity and step.txn not in out:
            out.append(step.txn)
    out.append(T_INIT)
    return out


def shared_signature(
    schedules: list[Schedule], prefix_len: int
) -> dict[int, TxnId] | None:
    """A read-source assignment on the shared prefix that every schedule
    can extend to a full MVSR witness, or None.

    DFS over the prefix's non-own reads; each partial assignment is
    validated against *every* schedule with a constrained witness search.
    """
    cores = [s.core() for s in schedules]
    prefix = cores[0].prefix(prefix_len)
    reads = _non_own_reads(cores[0], prefix_len)

    assignment: dict[int, TxnId] = {}

    def feasible() -> bool:
        return all(witness_exists(core, assignment) for core in cores)

    def assign(index: int) -> bool:
        if index == len(reads):
            return True
        position = reads[index]
        for source in _source_candidates(prefix, position):
            assignment[position] = source
            if feasible() and assign(index + 1):
                return True
            del assignment[position]
        return False

    if not feasible():
        return None
    if assign(0):
        return dict(assignment)
    return None


def prefix_signatures(schedule: Schedule, prefix_len: int) -> set[Signature]:
    """All prefix signatures realizable by the schedule's MVSR witnesses.

    Exhaustive (used by tests and the §4 worked example); prefer
    :func:`shared_signature` inside decision procedures.
    """
    core = schedule.core()
    free_reads = _non_own_reads(core, prefix_len)
    signatures: set[Signature] = set()
    for order in mvsr_serializations(core):
        sources = serial_read_from_sources(core, [T_INIT] + order)
        signatures.add(tuple((i, sources[i]) for i in free_reads))
    return signatures


def branching_prefixes(schedules: list[Schedule]) -> list[int]:
    """Lengths of the longest common prefixes of subsets of ``schedules``.

    For a finite set these are exactly the pairwise lcp lengths; checking
    the OLS condition at them (plus full-schedule MVSR-ness) is complete.
    """
    lengths: set[int] = set()
    for a in range(len(schedules)):
        for b in range(a + 1, len(schedules)):
            lengths.add(schedules[a].common_prefix_length(schedules[b]))
    return sorted(lengths)


@dataclass(frozen=True)
class OLSCertificate:
    """A witness that a schedule set is OLS.

    ``prefix_version_functions`` maps each checked (prefix length, member
    group) to a version function on that prefix extendable by every group
    member.
    """

    prefix_version_functions: dict[tuple[int, int], VersionFunction]


def is_ols(schedules: list[Schedule]) -> bool:
    """Exact OLS decision for a finite set of schedules.

    NP-complete already for pairs of MVCSR schedules (Theorem 4).
    """
    return ols_certificate(schedules) is not None


def ols_certificate(schedules: list[Schedule]) -> OLSCertificate | None:
    """Produce an OLS certificate, or None when the set is not OLS."""
    cores = [s.core() for s in schedules]
    # Each schedule alone must be MVSR (prefix = the whole schedule).
    for core in cores:
        if not witness_exists(core, {}):
            return None

    prefix_vfs: dict[tuple[int, int], VersionFunction] = {}
    for plen in branching_prefixes(cores):
        groups: dict[tuple, list[int]] = {}
        for idx, core in enumerate(cores):
            if len(core) >= plen:
                groups.setdefault(core.steps[:plen], []).append(idx)
        for group_no, (prefix_steps, members) in enumerate(
            sorted(groups.items(), key=lambda kv: repr(kv[0]))
        ):
            if len(members) < 2:
                continue
            signature = shared_signature([cores[m] for m in members], plen)
            if signature is None:
                return None
            prefix_vfs[(plen, group_no)] = _signature_to_version_function(
                Schedule(prefix_steps), signature
            )
    return OLSCertificate(prefix_vfs)


def _signature_to_version_function(
    prefix: Schedule, signature: dict[int, TxnId]
) -> VersionFunction:
    """Concrete version function on ``prefix`` realizing a signature.

    Non-own reads get the latest write of their signature source inside
    the prefix; own-reads get the transaction's latest own write; reads
    from ``T0`` get the initial version.
    """
    assignments: dict[int, int | str] = {}
    own_last_write: dict[tuple[TxnId, Entity], int] = {}
    for i, step in enumerate(prefix):
        if step.is_write:
            own_last_write[(step.txn, step.entity)] = i
            continue
        if i in signature:
            source = signature[i]
            if source == T_INIT:
                assignments[i] = T_INIT
            else:
                candidates = [
                    w
                    for w in prefix.writes_of(step.entity)
                    if prefix[w].txn == source and w < i
                ]
                assignments[i] = candidates[-1]
        elif (step.txn, step.entity) in own_last_write:
            assignments[i] = own_last_write[(step.txn, step.entity)]
    vf = VersionFunction(assignments)
    vf.validate(prefix)
    return vf
