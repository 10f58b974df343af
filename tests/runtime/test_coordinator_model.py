"""Reference model: the per-ticket state machine the coordinator replaced.

:meth:`repro.runtime.dispatch.ShardRuntime._run_cross` states the
cross-domain protocol once, as a generator the dispatcher resumes with
the results of the worker futures it yields.  The claim is that this is
the *same dispatcher* as the ``CrossState`` machine it replaced — a
``phase`` string (begin → steps → finish) with a barrier, a step index,
the gathered reads, a write index and one pending step future, advanced
one transition per call by ``_advance_cross`` — only shorter.  The
machine is kept here, verbatim but for the two deleted worker forwards
(it posts ``engine.submit``/``engine.finish`` directly, as the generator
does), as a test-local :class:`ShardRuntime` subclass, and both are
driven deterministically over every ``cross_stride`` that changes the
interleaving, two partitionable schedulers, three cross-heavy scenarios
and two retry policies (the zero-backoff one relaunches an aborted
attempt inside the round that aborted it): equal metrics, final state
and trace events.
"""

from dataclasses import dataclass, field

import pytest

from repro.engine.errors import TransactionAborted
from repro.engine.retry import RetryPolicy
from repro.obs import Tracer
from repro.runtime.dispatch import ShardRuntime, TicketState
from repro.storage.executor import write_value
from repro.workloads.registry import scenario_factory

from tests.helpers import tick_clock


@dataclass(eq=False)
class CrossState:
    """Coordinator state of one cross-domain attempt."""

    phase: str = "begin"  # begin -> steps -> finish
    #: outstanding begin/finish tasks, one per involved worker.
    barrier: list = field(default_factory=list)
    step_index: int = 0
    #: read values gathered so far, in transaction order.
    reads: list = field(default_factory=list)
    write_index: int = 0
    #: the one outstanding step task, if any.
    pending: object = None


class StateMachineRuntime(ShardRuntime):
    """The dispatcher with the ``CrossState`` coordinator."""

    def _launch(self, ticket):
        ticket.seq = next(self._seq)
        ticket.attempt_no += 1
        ticket.attempts = {}
        ticket.future = None
        ticket.cross = None
        ticket.state = TicketState.EXECUTING
        domains = sorted(
            {self._domain_of(s.entity) for s in ticket.transaction.steps}
        )
        ticket.worker_ids = tuple(domains)
        if ticket.attempt_no == 1:
            if len(domains) == 1:
                self.metrics.single_shard += 1
            else:
                self.metrics.cross_shard += 1
        if len(domains) == 1:
            worker = self.workers[domains[0]]
            ticket.future = worker.post(
                lambda w=worker, t=ticket: w.execute(t)
            )
            return
        counts = {}
        for step in ticket.transaction.steps:
            domain = self._domain_of(step.entity)
            counts[domain] = counts.get(domain, 0) + 1
        ticket.cross = CrossState()
        ticket.cross.barrier = [
            self.workers[domain].post(
                lambda w=self.workers[domain], n=counts[domain], t=ticket:
                w.begin_part(t, n)
            )
            for domain in domains
        ]

    def _post_next_step(self, ticket):
        state = ticket.cross
        step = ticket.transaction.steps[state.step_index]
        domain = self._domain_of(step.entity)
        engine = self.workers[domain].engine
        attempt = ticket.attempts[domain]
        if step.is_read:
            state.pending = self.workers[domain].post(
                lambda e=engine, a=attempt, s=step: e.submit(a, s)
            )
            return
        try:
            value = write_value(
                ticket.program, ticket.key, state.write_index, state.reads
            )
        except Exception as exc:
            raise TransactionAborted(ticket.key, "logic") from exc
        state.write_index += 1
        state.pending = self.workers[domain].post(
            lambda e=engine, a=attempt, s=step, v=value:
            e.submit(a, s, value=v)
        )

    def _advance_cross(self, ticket):
        state = ticket.cross
        steps = ticket.transaction.steps
        blocking = self.cross_stride == 0
        try:
            if state.phase == "begin":
                if not blocking and not all(f.done for f in state.barrier):
                    return 0
                for future in state.barrier:
                    future.result()
                state.phase = "steps"
                self._post_next_step(ticket)
                return 1
            if state.phase == "steps":
                if not blocking and not state.pending.done:
                    return 0
                value = state.pending.result()
                if steps[state.step_index].is_read:
                    state.reads.append(value)
                state.step_index += 1
                if state.step_index < len(steps):
                    self._post_next_step(ticket)
                    return 1
                state.phase = "finish"
                state.barrier = [
                    self.workers[domain].post(
                        lambda e=self.workers[domain].engine,
                        a=ticket.attempts[domain]: e.finish(a)
                    )
                    for domain in ticket.worker_ids
                ]
                return 1
            if not blocking and not all(f.done for f in state.barrier):
                return 0
            for future in state.barrier:
                future.result()
        except TransactionAborted as aborted:
            ticket.cross = None
            self._handle_abort(ticket, aborted.reason)
            return 1
        ticket.cross = None
        self._vote(ticket)
        return 1

    def _settle(self):
        progress = 0
        for ticket in list(self._inflight):
            if ticket.state is TicketState.EXECUTING:
                if ticket.cross is not None:
                    transitions = 0
                    while (
                        ticket.state is TicketState.EXECUTING
                        and ticket.cross is not None
                        and self._advance_cross(ticket)
                    ):
                        transitions += 1
                        if (
                            self.cross_stride
                            and transitions >= self.cross_stride
                        ):
                            break
                    progress += 1 if transitions else 0
                elif ticket.future is not None and ticket.future.done:
                    outcome, reason = ticket.future.result()
                    ticket.future = None
                    if outcome == "voted":
                        self._vote(ticket)
                    else:
                        self._handle_abort(ticket, reason)
                    progress += 1
            elif ticket.state is TicketState.BACKOFF:
                ticket.backoff_left -= 1
                if ticket.backoff_left <= 0:
                    self._launch(ticket)
                # A round spent backing off counts as progress.
                progress += 1
        return progress


#: cross-heavy workloads: most transactions span two or more domains.
SCENARIOS = {
    "sharded-bank": dict(
        n_shards=4, accounts_per_shard=2, cross_fraction=0.8,
        hot_fraction=0.0, seed=5,
    ),
    "abort-heavy": dict(
        n_shards=4, accounts_per_shard=2, cross_fraction=0.8,
        abort_fraction=0.25, seed=5,
    ),
    "inventory": dict(n_warehouses=6, seed=4),
}
RETRIES = {
    "default": RetryPolicy,
    "zero-backoff": lambda: RetryPolicy(
        max_attempts=3, backoff_base=0, jitter=False
    ),
}


def drive(runtime_class, scheduler, scenario_name, stride, retry):
    # Built per run: ``inventory`` draws from one workload RNG.
    scenario = scenario_factory(scenario_name, **SCENARIOS[scenario_name])
    tracer = Tracer(capacity=None)
    runtime = runtime_class(
        scheduler,
        initial=scenario.initial_state(),
        n_workers=4,
        batch_size=6,
        retry=RETRIES[retry](),
        seed=11,
        cross_stride=stride,
        tracer=tracer,
    )
    tick_clock(tracer, runtime.metrics)
    metrics = runtime.run(scenario.transaction_stream(90))
    return metrics.as_dict(), runtime.final_state(), tracer.events


@pytest.mark.parametrize("retry", sorted(RETRIES))
@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
@pytest.mark.parametrize("scheduler", ["mvto", "si"])
@pytest.mark.parametrize("stride", [0, 1, 2, 3])
def test_generator_coordinator_matches_state_machine(
    stride, scheduler, scenario_name, retry
):
    metrics, state, events = drive(
        ShardRuntime, scheduler, scenario_name, stride, retry
    )
    model = drive(
        StateMachineRuntime, scheduler, scenario_name, stride, retry
    )
    assert metrics["cross_shard"] > 0
    assert metrics == model[0]
    assert state == model[1]
    assert events == model[2]


def test_grid_reaches_every_coordinator_outcome():
    """The grid is only a model check if it exercises the paths the
    generator folds together: rejections inside a cross-domain attempt,
    logic aborts raised at write-value time, and zero-backoff relaunches
    inside the aborting round."""
    metrics, _, events = drive(
        ShardRuntime, "mvto", "abort-heavy", 1, "zero-backoff"
    )
    reasons = {e.args.get("reason") for e in events if e.name == "txn.abort"}
    assert {"logic", "rejected"} <= reasons
    backoffs = [
        e.args["backoff"] for e in events if e.name == "txn.retry"
    ]
    assert backoffs and set(backoffs) == {0}
    assert metrics["retries"] > 0
