"""The sanctioned wall-clock seam — the only module that reads `time`.

Elapsed-seconds fields (``metrics.elapsed``) and the tracer's default
microsecond clock are the repo's *only* legitimate wall-clock readers:
everything else must be driven by logical ticks, or byte-identical
equal-seed reports stop holding.  Routing every reader through this one
module makes that a structural property the contract linter can check —
rule ``D102`` flags any direct ``time.time`` / ``time.monotonic`` /
``time.perf_counter`` call outside this file, so a stray wall-clock
read in a deterministic path is a review-time finding, not a
cross-process byte-diff three PRs later.
"""

from __future__ import annotations

import time
from typing import Callable


def perf_clock() -> float:
    """Monotonic seconds for elapsed-time measurement.

    The one sanctioned spelling of ``time.perf_counter()``: backends
    bracket their runs with it to fill ``metrics.elapsed``
    (a wall-clock field, zeroed out of deterministic reports).
    """
    return time.perf_counter()


def wall_clock_us() -> Callable[[], int]:
    """A zero-based microsecond clock (the tracer's default).

    Returns a closure over its own epoch so each tracer's timestamps
    start near zero; deterministic subsystems replace it with their
    logical tick counter via ``Tracer.use_clock``.
    """
    started = perf_clock()
    return lambda: int((perf_clock() - started) * 1e6)


__all__ = ["perf_clock", "wall_clock_us"]
