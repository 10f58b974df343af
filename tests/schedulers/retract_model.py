"""The reference retraction: any scheduler, through ``reset`` and ``submit``.

A scheduler is an on-line tester: its state is a function of the log it
accepted.  So the state after its first ``n`` positions, or after some
transactions' steps are struck out of the log, is re-derived by resetting
it and re-feeding that log — slow, but correct by definition, and it
needs nothing of the scheduler but ``reset`` and ``submit``.  The engine
schedulers retract in place (``Scheduler.retract``); these are what they
are tested against.

A struck-out step is a tombstone, ``None`` in ``accepted_steps``, and
re-feeding keeps it as a hole: the survivors are re-submitted at their
old positions.  Every decision compares positions only by order, so the
holes model decides as :func:`compact_retract` does, which re-submits
the survivors packed, each moved down over the holes below it
(``test_truncate_model.holes_then_compact`` checks that renaming).
"""

from repro.schedulers.base import Scheduler


def refeed(scheduler: Scheduler, log: list) -> int | None:
    """Reset ``scheduler`` and feed it ``log`` position for position: a
    step is submitted, a hole (``None``) appended as a tombstone.

    Returns the position of the first step it rejects, or None.  After a
    rejection the scheduler is dead and ``accepted_steps`` still lists
    the rest of ``log``, the rejected step included.  Primes survive, as
    they do across ``reset``.
    """
    scheduler.reset()
    accepted = scheduler.accepted_steps
    for position, step in enumerate(log):
        if step is None:
            accepted.append(None)
        elif not scheduler.submit(step):
            accepted.extend(log[position:])
            return position
    return None


def truncate(scheduler: Scheduler, n: int) -> None:
    """Be in the state ``scheduler`` had after its first ``n`` positions.

    Dropping the positions after ``n`` is always meaningful, and a dead
    scheduler comes back alive (the rejected step is forgotten with the
    rest).
    """
    log = scheduler.accepted_steps
    if not 0 <= n <= len(log):
        raise ValueError(f"truncate({n}) with {len(log)} accepted steps")
    refused = refeed(scheduler, log[:n])
    if refused is not None:
        raise RuntimeError(
            f"{scheduler.name}: truncate({n}) re-fed the accepted prefix "
            f"and position {refused} was rejected"
        )


def retract(scheduler: Scheduler, removed: list[int]) -> int | None:
    """``Scheduler.retract`` by definition: tombstone the positions
    ``removed`` and re-feed the log, holes kept.  Returns the position of
    the first survivor re-feeding rejects, or None.  Set on a class as
    its ``retract``, it is that class's reference."""
    log = list(scheduler.accepted_steps)
    for position in removed:
        log[position] = None
    return refeed(scheduler, log)


def compact_retract(scheduler: Scheduler, removed: list[int]) -> int | None:
    """Strike the positions ``removed`` out of the log and re-feed the
    survivors packed, each moved down over the removed below it: the
    definition before tombstones, for a log that has none."""
    gone = set(removed)
    return refeed(scheduler, [
        step for position, step in enumerate(scheduler.accepted_steps)
        if position not in gone
    ])
