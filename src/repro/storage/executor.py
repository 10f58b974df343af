"""Schedule execution over the multiversion store.

Two value semantics:

* **Herbrand** (default): the value a write produces is the uninterpreted
  function of the values its transaction has read so far.  Two full
  schedules are view-equivalent iff executing them yields identical reads
  per transaction — this turns the paper's definitional equivalences into
  executable checks, and the test suite uses it to validate Theorem 3
  semantically.

* **Programs**: each transaction carries a function from its read values
  to its write values (bank transfers, inventory moves).  Used by the
  workloads to show that serializable interleavings preserve integrity
  constraints and non-serializable ones break them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.model.schedules import Schedule, T_INIT
from repro.model.steps import Entity, TxnId
from repro.model.version_functions import VersionFunction
from repro.storage.mvstore import MultiversionStore

#: A transaction program: maps (index of the write within the transaction,
#: values read so far in read order) to the value the write produces.
Program = Callable[[int, list], Any]


def herbrand_value(txn: TxnId, write_index: int, reads: list) -> tuple:
    """The uninterpreted-function value of a write (Herbrand semantics)."""
    return ("w", txn, write_index, tuple(reads))


def write_value(
    program: Program | None, txn: TxnId, write_index: int, reads: list
) -> Any:
    """The value a transaction's ``write_index``-th write produces.

    The one definition of write semantics — program if present, Herbrand
    otherwise — shared by the offline executor, the online engine, and
    the parallel runtime's cross-shard dispatcher.  The dispatcher in
    particular must compute byte-for-byte what the engine would, so
    these call sites may never diverge.
    """
    if program is not None:
        return program(write_index, list(reads))
    return herbrand_value(txn, write_index, reads)


@dataclass
class ExecutionResult:
    """Everything observable about one execution."""

    schedule: Schedule
    #: value returned by each read step, keyed by schedule position.
    read_values: dict[int, Any]
    #: value installed by each write step, keyed by schedule position.
    write_values: dict[int, Any]
    #: final value per entity.
    final_state: dict[Entity, Any]
    store: MultiversionStore = field(repr=False, default=None)

    def view(self, txn: TxnId) -> tuple:
        """The sequence of values ``txn`` read, in its own step order."""
        positions = [
            i
            for i in self.schedule.step_indices_of(txn)
            if self.schedule[i].is_read
        ]
        return tuple(self.read_values[i] for i in positions)


def execute(
    schedule: Schedule,
    version_function: VersionFunction | None = None,
    programs: Mapping[TxnId, Program] | None = None,
    initial: dict[Entity, Any] | None = None,
) -> ExecutionResult:
    """Run ``(schedule, V)`` against a fresh multiversion store.

    With ``version_function=None`` the standard version function is used
    (single-version semantics on a multiversion substrate).  With
    ``programs`` given, write values come from the transaction programs;
    otherwise Herbrand semantics apply.
    """
    core = schedule
    vf = version_function or VersionFunction.standard(core)
    vf.validate(core)
    store = MultiversionStore(initial)
    read_values: dict[int, Any] = {}
    write_values: dict[int, Any] = {}
    reads_so_far: dict[TxnId, list] = {}
    write_counter: dict[TxnId, int] = {}

    for position, step in enumerate(core):
        if step.is_read:
            source = vf.assignments.get(position, T_INIT)
            version = store.at_position(
                step.entity, None if source == T_INIT else source
            )
            read_values[position] = version.value
            reads_so_far.setdefault(step.txn, []).append(version.value)
        else:
            reads = reads_so_far.get(step.txn, [])
            k = write_counter.get(step.txn, 0)
            write_counter[step.txn] = k + 1
            program = (programs or {}).get(step.txn)
            value = write_value(program, step.txn, k, reads)
            store.install(step.entity, step.txn, value, position)
            write_values[position] = value

    return ExecutionResult(
        core, read_values, write_values, store.final_state(), store
    )


def execute_serial(
    schedule: Schedule,
    order: list[TxnId],
    programs: Mapping[TxnId, Program] | None = None,
    initial: dict[Entity, Any] | None = None,
) -> ExecutionResult:
    """Execute the serial schedule running ``schedule``'s transactions in
    ``order`` (standard version function)."""
    serial = Schedule.serial([schedule.projection(t) for t in order])
    return execute(serial, None, programs, initial)


def views_match(first: ExecutionResult, second: ExecutionResult) -> bool:
    """Same per-transaction read values in both executions.

    Under Herbrand semantics this is exactly view equivalence of the two
    full schedules (same READ-FROM relations), stated over values instead
    of version functions.
    """
    txns = set(first.schedule.txn_ids) | set(second.schedule.txn_ids)
    return all(first.view(t) == second.view(t) for t in txns)
