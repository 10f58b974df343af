"""Per-layer attribution from outside the program.

Nothing under ``src/`` knows about this file.  :func:`installed` wraps
the public callables of every ``repro`` layer (class attributes, and
module functions at each place a ``repro`` module holds them by name),
the wrappers record one span per call while a :class:`Recorder` is
active, and the originals are put back on exit.

A span is ``(name, start, end, parent)`` on one thread; the parent is
the span that was open on that thread when the call began (a
thread-local stack), so spans of one run form one tree per thread.  A
span's *self time* is its duration minus the durations of its direct
children.  Spans are grouped (``storage.read``, ``engine.submit`` …);
a group's ``calls`` counts the spans whose parent is not in the same
group, so a proxy that forwards to the wrapped method it proxies
(``LockedScheduler.submit`` → ``MVTOScheduler.submit``,
``Digraph.is_acyclic`` → ``has_cycle``) counts once.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable


# -- what is wrapped -----------------------------------------------------
#
# (group, "module:Class" or "module", attribute names[, value]).  A
# ``value`` function maps ``(args, result)`` of one call to a number
# that is summed per group (rejections, versions freed …).  The
# ``Scheduler`` entry is applied to every loaded subclass that defines
# the method itself: the concrete schedulers and the shared-domain proxy
# of ``repro.runtime.shared`` override them.


def _rejected(args, accepted) -> int:
    return 0 if accepted else 1


def _returned(args, result) -> int:
    return result


def _chain_len_max(args, result) -> int:
    # Through the unwrapped method, so the probe records no span.
    store = args[0]
    versions = type(store).versions
    versions = getattr(versions, "__wrapped__", versions)
    return max(
        (len(versions(store, entity)) for entity in store.entities()),
        default=0,
    )


_STORE = "repro.storage.mvstore:MultiversionStore"
_SHARDED = "repro.storage.sharded:ShardedMultiversionStore"
_READS = ("latest", "latest_before", "at_position", "latest_by", "initial")
_WRITES = ("install", "reserve", "fill")
_UNDO = ("remove", "poison", "revive")
_SCANS = ("version_count", "placeholder_count", "versions")
_ENGINE = "repro.engine.engine:OnlineEngine"
_WORKER = "repro.runtime.worker:ShardWorker"
_COMMIT_LOG = "repro.runtime.group_commit:GroupCommitLog"
_DIGRAPH = "repro.graphs.digraph:Digraph"

TARGETS: tuple[tuple, ...] = (
    ("db.run", "repro.db.database:Database", ("run",)),
    ("schedulers.submit", "repro.schedulers.base:Scheduler", ("submit",),
     _rejected),
    ("schedulers.reset", "repro.schedulers.base:Scheduler", ("reset",)),
    ("schedulers.prime", "repro.schedulers.base:Scheduler",
     ("prime_transaction",)),
    ("storage.read", _STORE, _READS),
    ("storage.write", _STORE, _WRITES),
    ("storage.undo", _STORE, _UNDO),
    ("storage.prune", _STORE, ("prune_before",), _returned),
    ("storage.scan", _STORE, _SCANS),
    # The chain-length probe runs after the span has ended, so its time
    # is charged to the caller (``db.run`` bookkeeping), not to storage.
    ("storage.scan", _STORE, ("final_state",), _chain_len_max),
    ("storage.sharded", _SHARDED,
     _READS + _WRITES + _UNDO + ("prune_before",) + _SCANS
     + ("final_state",)),
    ("storage.placeholder", "repro.storage.mvstore:PlaceholderVersion",
     ("wait",)),
    ("engine.begin", _ENGINE, ("begin",)),
    ("engine.submit", _ENGINE, ("submit",)),
    ("engine.finish", _ENGINE, ("finish",)),
    ("engine.close_epoch", _ENGINE, ("close_epoch",)),
    ("engine.abort_attempt", _ENGINE,
     ("abort_attempt", "release", "break_pending_cycle")),
    ("engine.driver", "repro.engine.sessions:ConcurrentDriver", ("run",)),
    ("engine.gc.collect", "repro.engine.gc:WatermarkGC", ("collect",),
     _returned),
    ("runtime.dispatch", "repro.runtime.dispatch:ShardRuntime", ("run",)),
    ("runtime.worker.execute", _WORKER, ("execute",)),
    ("runtime.cross_shard", _WORKER, ("begin_part",)),
    ("runtime.worker.flush", _WORKER,
     ("flush_votes", "flush_apply", "maybe_close_epoch")),
    ("runtime.group_commit", _COMMIT_LOG, ("add", "plan", "commit_closure")),
    ("runtime.group_commit.settle", _COMMIT_LOG, ("settle",)),
    ("runtime.wait", "repro.runtime.worker:WorkerFuture", ("wait",)),
    ("runtime.wait", "repro.runtime.worker:FlushRendezvous", ("exchange",)),
    ("planner.planning", "repro.planner.planning", ("plan_batch",)),
    ("planner.executor", "repro.planner.executor:PlanExecutor",
     ("execute",)),
    ("planner.executor", "repro.planner.executor", ("verify_settled",)),
    ("planner.reexec", "repro.planner.reexec", ("reexecute_poisoned",)),
    ("planner.driver", "repro.planner.driver:BatchPlanner", ("run",)),
    ("planner.driver", "repro.planner.pipeline:PipelinedPlanner", ("run",)),
    ("obs.emit", "repro.obs.tracer:Tracer", ("instant", "begin", "end")),
    ("audit.feed", "repro.audit.auditor:Auditor", ("feed",)),
    ("audit.finish", "repro.audit.auditor:Auditor", ("finish",)),
    ("graphs.cycle_check", _DIGRAPH,
     ("has_cycle", "is_acyclic", "would_close_cycle", "find_cycle",
      "topological_sort", "reachable_from")),
    # sgt checks a step on a trial copy of its graph: the copy is the
    # other half of an incremental cycle check.
    ("graphs.copy", _DIGRAPH, ("copy",)),
    ("graphs.polygraph", "repro.graphs.polygraph:Polygraph",
     ("acyclic_selection", "is_acyclic")),
    ("graphs.polygraph", "repro.classes.mvsr", ("is_mvsr_fixed",)),
)

#: modules whose import makes every holder of a wrapped name loaded.
_IMPORT_FIRST = (
    "repro.db", "repro.schedulers", "repro.engine", "repro.runtime",
    "repro.runtime.shared", "repro.planner", "repro.planner.pipeline",
    "repro.audit", "repro.obs", "repro.classes",
)


# -- recording -----------------------------------------------------------


class _ThreadLog:
    """The spans of one thread, as parallel columns."""

    __slots__ = ("thread", "name", "start", "end", "parent", "value", "top")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        #: span index -> the call's ``value`` (only targets that have one).
        self.value: dict[int, float] = {}
        #: index of the innermost open span, -1 at the thread's root.
        self.top = -1


class Recorder:
    """Collects spans while ``active``; one per traced pass."""

    def __init__(self) -> None:
        #: span-name table: ``names[i]`` is ``"group:qualname"``.
        self.names: list[str] = []
        self.active = False
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()

    def name_id(self, group: str, qualname: str) -> int:
        self.names.append(f"{group}:{qualname}")
        return len(self.names) - 1

    def thread_log(self) -> _ThreadLog:
        log = _ThreadLog(threading.current_thread().name)
        self._local.log = log
        with self._lock:
            self._logs.append(log)
        return log

    def take(self) -> list[_ThreadLog]:
        """Hand over the spans recorded so far and start afresh."""
        with self._lock:
            logs, self._logs = self._logs, []
        self._local = threading.local()
        return logs

    def wrap(self, fn: Callable, name_id: int, value) -> Callable:
        recorder = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            try:
                log = recorder._local.log
            except AttributeError:
                log = recorder.thread_log()
            parent = log.top
            index = len(log.name)
            log.top = index
            log.name.append(name_id)
            log.parent.append(parent)
            log.end.append(0.0)
            log.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                log.end[index] = clock()
                log.top = parent
            if value is not None:
                log.value[index] = value(args, result)
            return result

        return wrapper


def _resolve(path: str):
    module_name, _, class_name = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _with_subclasses(cls: type) -> list[type]:
    found, queue = [], [cls]
    while queue:
        current = queue.pop()
        found.append(current)
        queue.extend(current.__subclasses__())
    return found


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Wrap every target for the duration of the block."""
    for module_name in _IMPORT_FIRST:
        importlib.import_module(module_name)
    #: (owner, attribute, original) in installation order.
    undo: list[tuple[Any, str, Any]] = []
    try:
        for group, path, attributes, *rest in TARGETS:
            value = rest[0] if rest else None
            owner = _resolve(path)
            for attribute in attributes:
                if isinstance(owner, type):
                    holders = [
                        cls for cls in _with_subclasses(owner)
                        if attribute in vars(cls)
                    ]
                else:
                    original = getattr(owner, attribute)
                    holders = [
                        module for name, module in list(sys.modules.items())
                        if name.partition(".")[0] == "repro"
                        and vars(module).get(attribute) is original
                    ]
                for holder in holders:
                    original = vars(holder)[attribute]
                    label = getattr(holder, "__qualname__", holder.__name__)
                    wrapper = recorder.wrap(
                        original,
                        recorder.name_id(group, f"{label}.{attribute}"),
                        value,
                    )
                    undo.append((holder, attribute, original))
                    setattr(holder, attribute, wrapper)
        yield undo
    finally:
        for holder, attribute, original in reversed(undo):
            setattr(holder, attribute, original)


# -- aggregation ---------------------------------------------------------


@dataclass
class GroupTotals:
    calls: int = 0
    #: summed over threads.
    self_s: float = 0.0
    #: duration of the outermost spans of the group (time spent in the
    #: group *including* what it called — the waits' figure).
    total_s: float = 0.0
    longest_s: float = 0.0
    #: sum and maximum of the calls' ``value``.
    value: float = 0.0
    value_max: float = 0.0


@dataclass
class LayerProfile:
    """One traced run, folded by group."""

    groups: dict[str, GroupTotals] = field(default_factory=dict)
    #: duration of the ``db.run`` span.
    root_s: float = 0.0
    spans: int = 0

    def group(self, name: str) -> GroupTotals:
        return self.groups.get(name) or GroupTotals()

    @property
    def self_sum_s(self) -> float:
        return sum(g.self_s for g in self.groups.values())


def fold(names: list[str], logs: list[_ThreadLog]) -> LayerProfile:
    """Self time, calls and values per group over one run's spans."""
    group_of = [name.partition(":")[0] for name in names]
    profile = LayerProfile()
    groups = profile.groups
    for log in logs:
        start, end, parent, name = log.start, log.end, log.parent, log.name
        durations = [e - s for s, e in zip(start, end)]
        own = list(durations)
        for index, above in enumerate(parent):
            if above >= 0:
                own[above] -= durations[index]
        for index, name_id in enumerate(name):
            group = group_of[name_id]
            totals = groups.get(group)
            if totals is None:
                totals = groups[group] = GroupTotals()
            totals.self_s += own[index]
            above = parent[index]
            if above < 0 or group_of[name[above]] != group:
                totals.calls += 1
                totals.total_s += durations[index]
                if durations[index] > totals.longest_s:
                    totals.longest_s = durations[index]
                if group == "db.run":
                    profile.root_s += durations[index]
        for index, value in log.value.items():
            group, above = group_of[name[index]], parent[index]
            if above < 0 or group_of[name[above]] != group:
                totals = groups[group]
                totals.value += value
                totals.value_max = max(totals.value_max, value)
        profile.spans += len(name)
    return profile


def dump(names: list[str], logs: list[_ThreadLog], run_id: int) -> dict:
    """The spans of one run as JSON-ready columns (see README.md)."""
    return {
        "run_id": run_id,
        "names": names,
        "threads": [
            {
                "thread": log.thread,
                "name": log.name,
                "start": log.start,
                "end": log.end,
                "parent": log.parent,
            }
            for log in logs
        ],
    }
