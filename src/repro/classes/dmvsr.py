"""DMVSR ([Papadimitriou & Kanellakis 84], discussed in paper §3).

[PK84] shows MVSR is polynomial in the *restricted* model where no
transaction writes an entity it has not read, and defines a schedule (in
the general model) to be DMVSR if it is MVSR once an appropriate read step
is inserted before each "readless write".  The paper notes
``DMVSR ⊆ MVCSR`` (their MWW versus MRW classes).
"""

from __future__ import annotations

from repro.model.schedules import Schedule
from repro.model.steps import Entity, Step, read
from repro.classes.mvsr import is_mvsr


def dmvsr_augmented(schedule: Schedule) -> Schedule:
    """Insert ``R_i(x)`` immediately before each readless ``W_i(x)``.

    A write is *readless* when the transaction has not read the entity
    earlier in its own step sequence.
    """
    core = schedule.core()
    reads_so_far: dict[tuple, set[Entity]] = {}
    steps: list[Step] = []
    for step in core:
        seen = reads_so_far.setdefault((step.txn,), set())
        if step.is_read:
            seen.add(step.entity)
        elif step.entity not in seen:
            steps.append(read(step.txn, step.entity))
            # The inserted read also counts as having read the entity, so
            # a second blind write of the same entity gets no second read.
            seen.add(step.entity)
        steps.append(step)
    return Schedule(tuple(steps))


def is_dmvsr(schedule: Schedule) -> bool:
    """DMVSR: MVSR after augmenting readless writes with reads."""
    return is_mvsr(dmvsr_augmented(schedule))
