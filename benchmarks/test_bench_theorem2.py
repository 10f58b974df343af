"""E3 — Theorem 2: swap distance to a serial schedule.

For MVCSR schedules, measures how many ``~`` moves (swaps of adjacent
non-conflicting steps) separate them from a serial schedule — making the
transformation behind Theorem 2 concrete.  Times the BFS oracle.
"""

import random
from collections import deque

from repro.classes.mvcsr import is_mvcsr, neighbours_by_swap
from repro.classes.serial import is_serial
from repro.model.enumeration import random_schedule


def swap_distance(schedule, max_states=200_000):
    """Length of the shortest ``~`` path to a serial schedule, or None."""
    if is_serial(schedule):
        return 0
    seen = {schedule.steps}
    queue = deque([(schedule, 0)])
    while queue:
        current, depth = queue.popleft()
        for nxt in neighbours_by_swap(current):
            if nxt.steps in seen:
                continue
            if is_serial(nxt):
                return depth + 1
            seen.add(nxt.steps)
            queue.append((nxt, depth + 1))
            if len(seen) > max_states:
                return None
    return None


def _ensemble(seed=0, n=40):
    rng = random.Random(seed)
    return [random_schedule(2, ["x", "y"], 3, rng) for _ in range(n)]


def test_bench_theorem2_swap_distance(table_writer):
    schedules = _ensemble()

    def distances():
        return [swap_distance(s) for s in schedules]

    dist = distances()

    rows = []
    histogram = {}
    for s, d in zip(schedules, dist):
        mvcsr = is_mvcsr(s)
        # Theorem 2: reachable iff MVCSR.
        assert (d is not None) == mvcsr, str(s)
        if d is not None:
            histogram[d] = histogram.get(d, 0) + 1
    for d in sorted(histogram):
        rows.append({"swap_distance": d, "schedules": histogram[d]})
    rows.append(
        {
            "swap_distance": "unreachable (non-MVCSR)",
            "schedules": sum(1 for d in dist if d is None),
        }
    )
    table_writer("E3_theorem2", "swaps needed to reach a serial schedule", rows)
