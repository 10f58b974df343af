"""Completion orders for the shard runtime: seeded and replayed.

``ShardRuntime.completion_order`` is the one hook: when it is set, every
``ShardWorker`` *owes* the tasks posted to it (FIFO per worker) and the
order is called at each dispatcher read point to run the owed tasks it
chooses.  What a run can observe of its workers is exactly which tasks
had settled at each read, so an order stands in for any timing the
workers could have had.  Tasks of different workers commute — a task
touches only its own conflict domain — and tasks of one worker run in
posting order either way.

* :class:`SeededOrder` — adversarial and reproducible: at each read
  point every worker runs a random prefix of what it owes (often none),
  an await settles the awaited futures, an idle round runs at least one
  task.  Every choice is recorded.
* :class:`ReplayOrder` — drives each worker to the settled counts a
  record names at each read point, so a recorded run repeats exactly.

``install(order)`` is a context manager; the ``completion_order``
fixture in ``tests/conftest.py`` wraps it.  Run as a script, this
module runs the ``repro`` CLI under a seeded order::

    PYTHONPATH=src python tests/runtime/completion_order.py SEED \\
        run --mode parallel --scenario sharded-bank --audit
"""

from __future__ import annotations

import contextlib
import random
import sys

from repro.runtime.dispatch import ShardRuntime


def _owner(workers, future):
    """The worker whose owed queue holds ``future`` and its depth."""
    for worker in workers:
        for depth, (_, owed) in enumerate(worker.owed or ()):
            if owed is future:
                return worker, depth
    raise AssertionError("awaited future is neither settled nor owed")


def _settle(workers, futures):
    for future in futures:
        if not future.done:
            worker, depth = _owner(workers, future)
            worker.run_owed(depth + 1)


#: chance that a worker runs nothing at a read point.
HOLD = 0.5


class SeededOrder:
    """A reproducible adversarial completion order."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        #: ``(point, settled counts after the choice)`` per read point.
        self.record: list[tuple[str, tuple[int, ...]]] = []

    def __call__(self, workers, point, awaited) -> None:
        rng = self.rng
        ran = 0
        for worker in workers:
            if worker.owed and rng.random() >= HOLD:
                n = rng.randint(1, len(worker.owed))
                worker.run_owed(n)
                ran += n
        if point == "await":
            _settle(workers, awaited)
        elif point == "idle" and not ran:
            owing = [w for w in workers if w.owed]
            if owing:
                rng.choice(owing).run_owed()
        self.record.append((point, tuple(w._tasks for w in workers)))


class ReplayOrder:
    """Repeat a recorded run: at read point ``i`` bring every worker to
    ``record[i]``'s settled count."""

    def __init__(self, record) -> None:
        self.record = list(record)
        self.at = 0

    def __call__(self, workers, point, awaited) -> None:
        expected, counts = self.record[self.at]
        assert point == expected, (
            f"replay diverged at read point {self.at}: "
            f"{point} where the record has {expected}"
        )
        self.at += 1
        for worker, target in zip(workers, counts):
            n = target - worker._tasks
            if n > len(worker.owed):
                raise AssertionError(
                    f"replay diverged: worker {worker.worker_id} owes "
                    f"{len(worker.owed)} tasks, the record runs {n}"
                )
            if n > 0:
                worker.run_owed(n)


@contextlib.contextmanager
def install(order):
    """Make ``order`` every ``ShardRuntime``'s completion order inside
    the block."""
    saved = ShardRuntime.completion_order
    ShardRuntime.completion_order = order
    try:
        yield order
    finally:
        ShardRuntime.completion_order = saved


def main(argv: list[str]) -> int:
    from repro.cli import main as cli_main

    seed, *args = argv
    with install(SeededOrder(int(seed))):
        return cli_main(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
