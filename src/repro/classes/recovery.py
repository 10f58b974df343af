"""Recovery-oriented schedule properties: RC, ACA, ST.

The paper's reference [1] (Bayer, Heller, Reiser: "Parallelism and
recovery in database systems") motivates multiversion designs partly by
recovery; these are the classical recovery classes, defined over the
standard (single-version) READ-FROM relation with commits at each
transaction's last step:

* **RC** (recoverable): if ``T_i`` reads from ``T_j``, then ``T_j``
  commits before ``T_i`` commits;
* **ACA** (avoids cascading aborts): reads only from committed
  transactions — ``T_j`` commits before the *read* happens;
* **ST** (strict): additionally no entity is overwritten while an
  uncommitted transaction's write of it is live: reads *and overwrites*
  only touch committed data.

``ST ⊆ ACA ⊆ RC``, and all three are orthogonal to serializability —
which the tests demonstrate with witnesses in each direction.  One reason
multiversion systems age so well in practice: reading an old *committed*
version (as MVTO or snapshot isolation do) gives ACA-style behaviour
without blocking writers.
"""

from __future__ import annotations

from repro.model.schedules import Schedule, T_FINAL, T_INIT
from repro.model.steps import Entity, TxnId


def _commit_positions(core: Schedule) -> dict[TxnId, int]:
    """Each transaction commits at its last step's position."""
    return {
        t: core.step_indices_of(t)[-1]
        for t in core.txn_ids
    }


def is_recoverable(schedule: Schedule) -> bool:
    """RC: every reader commits after each transaction it read from."""
    core = schedule.core()
    commits = _commit_positions(core)
    for i in core.read_indices():
        reader = core[i].txn
        source_pos = core.last_write_before(i, core[i].entity)
        if source_pos is None:
            continue
        source = core[source_pos].txn
        if source == reader:
            continue
        if commits[source] > commits[reader]:
            return False
    return True


def avoids_cascading_aborts(schedule: Schedule) -> bool:
    """ACA: reads only committed data."""
    core = schedule.core()
    commits = _commit_positions(core)
    for i in core.read_indices():
        reader = core[i].txn
        source_pos = core.last_write_before(i, core[i].entity)
        if source_pos is None:
            continue
        source = core[source_pos].txn
        if source == reader:
            continue
        if commits[source] > i:
            return False
    return True


def is_strict(schedule: Schedule) -> bool:
    """ST: reads and overwrites only touch committed data."""
    core = schedule.core()
    if not avoids_cascading_aborts(core):
        return False
    commits = _commit_positions(core)
    for entity in core.entities:
        writes = core.writes_of(entity)
        for a in range(len(writes) - 1):
            earlier, later = writes[a], writes[a + 1]
            t_earlier = core[earlier].txn
            if t_earlier == core[later].txn:
                continue
            if commits[t_earlier] > later:
                return False
    return True


def recovery_profile(schedule: Schedule) -> dict[str, bool]:
    """RC / ACA / ST membership in one call."""
    return {
        "recoverable": is_recoverable(schedule),
        "aca": avoids_cascading_aborts(schedule),
        "strict": is_strict(schedule),
    }
