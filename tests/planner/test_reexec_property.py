"""Property test: the planner family equals the serial oracle.

A planner batch with logic aborts realizes *exactly* the state a serial
executor would: run the stream one transaction at a time in timestamp
order, skip any transaction whose program raises, commit the rest.  The
read-time re-bind (a reader of a logic-aborted writer moves to the next
version down the chain and runs on) is what makes that so.

This file states the oracle independently (a dozen lines over a plain
dict, sharing only :func:`repro.storage.executor.write_value` so write
semantics cannot diverge) and checks, on randomized workloads mixing
clean transfers, unconditional aborts, and *value-dependent* aborts
(a re-bound reader that aborts in turn, so its own readers re-bind):

* committed set and final state are identical to the oracle, on the
  wall clock as on the tick;
* concurrency-control aborts stay zero, and no placeholder survives.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.obs import Tracer
from repro.planner import BatchPlanner
from repro.storage.executor import write_value
from repro.workloads.bank import transfer_program, transfer_transaction

INITIAL_BALANCE = 100


class InjectedAbort(RuntimeError):
    pass


def boom_program(label):
    """A program that logic-aborts unconditionally."""

    def program(write_index, reads):
        raise InjectedAbort(label)

    return program


def guarded_program(amount, floor):
    """Debit only while the source stays above ``floor`` — a
    *value-dependent* abort, so whether it fires depends on which
    earlier transactions committed.  This is what makes a re-bound
    reader abort in turn, so its own readers re-bind past it."""

    def program(write_index, reads):
        if reads[0] - amount < floor:
            raise InjectedAbort("guard")
        return transfer_program(amount)(write_index, reads)

    program.value_dependent = True
    return program


def serial_oracle(initial, stream):
    """Run the stream serially in timestamp order; a raising program
    commits nothing.  Returns (final_state, committed txn ids)."""
    state = dict(initial)
    committed = []
    for txn, program in stream:
        reads = []
        writes = {}
        write_index = 0
        try:
            for step in txn.steps:
                if step.is_read:
                    reads.append(writes.get(step.entity, state[step.entity]))
                else:
                    writes[step.entity] = write_value(
                        program, txn.txn, write_index, reads
                    )
                    write_index += 1
        except InjectedAbort:
            continue
        state.update(writes)
        committed.append(str(txn.txn))
    return state, committed


@st.composite
def abort_workloads(draw):
    """Random transfer streams with unconditional and value-dependent
    aborts, over a small hot account pool so poison chains form."""
    n_accounts = draw(st.integers(min_value=3, max_value=5))
    accounts = [f"a{i}" for i in range(n_accounts)]
    n_txns = draw(st.integers(min_value=1, max_value=14))
    stream = []
    for k in range(n_txns):
        source = draw(st.sampled_from(accounts), label=f"src:{k}")
        target = draw(
            st.sampled_from([a for a in accounts if a != source]),
            label=f"dst:{k}",
        )
        amount = draw(st.integers(min_value=1, max_value=40))
        kind = draw(
            st.sampled_from(["ok", "ok", "boom", "guard"]),
            label=f"kind:{k}",
        )
        if kind == "boom":
            program = boom_program(f"t{k}")
        elif kind == "guard":
            floor = draw(st.integers(min_value=0, max_value=120))
            program = guarded_program(amount, floor)
        else:
            program = transfer_program(amount)
        stream.append((transfer_transaction(f"t{k}", source, target), program))
    batch_size = draw(st.integers(min_value=1, max_value=8))
    return accounts, stream, batch_size


def committed_ids(tracer):
    return sorted(
        event.args["txn"]
        for event in tracer.events
        if event.name == "txn.commit"
    )


@given(abort_workloads())
@settings(max_examples=80, deadline=None)
def test_reexec_matches_serial_oracle(workload):
    accounts, stream, batch_size = workload
    initial = {a: INITIAL_BALANCE for a in accounts}
    oracle_state, oracle_committed = serial_oracle(initial, stream)

    tracer = Tracer(capacity=None)
    planner = BatchPlanner(
        initial=initial, n_workers=2, batch_size=batch_size,
        tracer=tracer,
    )
    metrics = planner.run(stream)

    # final_state() covers touched entities; untouched ones keep the
    # initial value, so overlay it for a total-state comparison.
    assert {**initial, **planner.final_state()} == oracle_state
    assert committed_ids(tracer) == sorted(oracle_committed)
    assert metrics.committed == len(oracle_committed)
    assert metrics.cc_aborts == 0
    assert planner.store.placeholder_count() == 0


@given(abort_workloads())
@settings(max_examples=100, deadline=None)
def test_wall_clock_matches_serial_oracle(workload):
    accounts, stream, batch_size = workload
    initial = {a: INITIAL_BALANCE for a in accounts}
    oracle_state, oracle_committed = serial_oracle(initial, stream)

    tracer = Tracer(capacity=None)
    planner = BatchPlanner(
        initial=initial, n_workers=4, batch_size=batch_size,
        tracer=tracer,
    )
    metrics = planner.run(stream)

    assert {**initial, **planner.final_state()} == oracle_state
    assert committed_ids(tracer) == sorted(oracle_committed)
    assert metrics.cc_aborts == 0
    assert planner.store.placeholder_count() == 0
