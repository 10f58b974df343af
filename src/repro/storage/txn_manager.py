"""Transaction manager: scheduler + store glued together.

Drives a schedule through a scheduler step by step; accepted steps execute
against the multiversion store under the scheduler's committed version
function (for a single-version scheduler, the standard one).  This is
what a database kernel's concurrency-control layer does: the scheduler
admits and orders accesses, the storage layer serves the versions the
scheduler picked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.model.schedules import Schedule, T_INIT
from repro.model.steps import Entity, TxnId
from repro.schedulers.base import Scheduler
from repro.storage.executor import ExecutionResult, Program, execute
from repro.storage.mvstore import MultiversionStore


@dataclass
class ProgramOutcome:
    """Result of pushing one schedule through scheduler + store."""

    accepted: bool
    #: how many steps were accepted before the first rejection (= all when
    #: accepted).
    accepted_steps: int
    execution: ExecutionResult | None
    scheduler_name: str

    @property
    def final_state(self) -> dict[Entity, Any] | None:
        return self.execution.final_state if self.execution else None


class TransactionManager:
    """Run schedules through a scheduler, then execute the accepted ones."""

    def __init__(
        self,
        scheduler: Scheduler,
        programs: Mapping[TxnId, Program] | None = None,
        initial: dict[Entity, Any] | None = None,
    ) -> None:
        self.scheduler = scheduler
        self.programs = programs
        self.initial = dict(initial or {})

    def run(self, schedule: Schedule) -> ProgramOutcome:
        """Submit every step; execute iff the whole schedule is accepted.

        Rejected schedules do not execute at all — in the paper's model a
        rejected step rejects the schedule (a real system would abort and
        retry; retry policies are workload-level concerns, see
        :mod:`repro.workloads`).
        """
        n = self.scheduler.accepted_prefix_length(schedule)
        if n < len(schedule):
            return ProgramOutcome(False, n, None, self.scheduler.name)
        vf = self.scheduler.version_function()
        execution = execute(schedule, vf, self.programs, self.initial)
        return ProgramOutcome(True, n, execution, self.scheduler.name)
