"""Shared fixtures: canonical schedules from the paper and small systems."""

from __future__ import annotations

from repro.model.parsing import parse_schedule
from repro.model.schedules import Schedule, T_INIT

# Figure 1 witnesses (see repro.analysis.figure1 for provenance notes).
S1_NOT_MVSR = parse_schedule("RA(x) RB(x) WA(x) WB(x)")
S2_MVSR_ONLY = parse_schedule("WA(x) RB(x) RC(y) WC(x) WB(y)")
S3_VSR_NOT_MVCSR = parse_schedule("WA(x) RB(x) RC(y) WC(x) WD(x) WB(y)")
S4_MVCSR_NOT_VSR = parse_schedule("RA(x) WA(x) RB(x) RB(y) WB(y) RA(y) WA(y)")
S5_VSR_AND_MVCSR = parse_schedule("RA(x) WA(x) RB(x) WB(y) WA(y) WC(y)")
S6_SERIAL = parse_schedule("RA(x) WA(x) RB(x) WB(y)")

# §4's non-OLS pair: unique serializations AB and BA respectively.
SEC4_S = parse_schedule("RA(x) WA(x) RB(x) RA(y) WA(y) RB(y) WB(y)")
SEC4_S_PRIME = parse_schedule("RA(x) WA(x) RB(x) RB(y) WB(y) RA(y) WA(y)")

ALL_FIGURE1 = {
    "s1": S1_NOT_MVSR,
    "s2": S2_MVSR_ONLY,
    "s3": S3_VSR_NOT_MVCSR,
    "s4": S4_MVCSR_NOT_VSR,
    "s5": S5_VSR_AND_MVCSR,
    "s6": S6_SERIAL,
}


def tiny_schedules(max_txns: int = 2, max_steps: int = 3) -> list[Schedule]:
    """A deterministic, moderately sized pool of small schedules."""
    import random

    from repro.model.enumeration import random_schedule

    rng = random.Random(12345)
    pool = []
    for _ in range(60):
        pool.append(
            random_schedule(
                rng.randint(2, max_txns + 1),
                ["x", "y"],
                rng.randint(1, max_steps),
                rng,
            )
        )
    return pool


def serial_read_sources(schedule: Schedule, order) -> dict[int, str]:
    """Read position -> the source a serial run in ``order`` would serve
    (last earlier writer of the entity, own writes included, else T0)."""
    sources, last_writer = {}, {}
    for txn in order:
        for i in schedule.step_indices_of(txn):
            step = schedule[i]
            if step.is_write:
                last_writer[step.entity] = txn
            else:
                sources[i] = last_writer.get(step.entity, T_INIT)
    return sources


def tick_clock(tracer, counter) -> None:
    """Stamp ``tracer``'s events with ``counter.ticks`` — the clock
    :mod:`repro.db` installs for a deterministic run.  A test that
    builds a driver itself and compares trace bytes installs it here:
    ``engine.metrics`` (serial), ``runtime.metrics`` or
    ``planner.metrics``."""
    tracer.use_clock(lambda: counter.ticks)


def clocked(driver, deterministic: bool):
    """``driver`` (a ``ShardRuntime`` or ``BatchPlanner`` built with a
    ``Tracer``) on the trace clock a :mod:`repro.db` run with this
    ``deterministic`` would give it: the tick counter, else the wall
    clock.  A test parametrized over ``deterministic`` pins that the
    clock changes nothing the driver decides."""
    if deterministic:
        tick_clock(driver.tracer, driver.metrics)
    return driver
