"""Property test: re-execution equals the serial oracle.

The re-execution fixpoint (:mod:`repro.planner.reexec`) claims that a
planner batch with logic aborts still realizes *exactly* the state a
serial executor would: run the stream one transaction at a time in
timestamp order, skip any transaction whose program raises, commit the
rest.  That claim is what makes re-execution safe to default on — it
recovers committed throughput without changing what a run means.

This file states the oracle independently (a dozen lines over a plain
dict, sharing only :func:`repro.storage.executor.write_value` so write
semantics cannot diverge) and checks, on randomized workloads mixing
clean transfers, unconditional aborts, and *value-dependent* aborts
(the chained-re-abort case the fixpoint loop exists for):

* committed set and final state are identical to the oracle, in both
  abort-free modes;
* re-execution never commits less than the poison cascade it replaces
  *when every logic abort is injected* — with value-dependent aborts it
  can commit less, and one such stream is pinned;
* concurrency-control aborts stay zero — re-execution must not
  reintroduce the failure mode the planner family eliminates.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
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
    earlier transactions committed.  This is what forces re-executed
    transactions to re-abort and the fixpoint to iterate."""

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
        deterministic=True, tracer=tracer,
    )
    metrics = planner.run(stream)

    # final_state() covers touched entities; untouched ones keep the
    # initial value, so overlay it for a total-state comparison.
    assert {**initial, **planner.final_state()} == oracle_state
    assert committed_ids(tracer) == sorted(oracle_committed)
    assert metrics.committed == len(oracle_committed)
    assert metrics.cc_aborts == 0
    assert metrics.cascade_aborted == 0
    assert planner.store.placeholder_count() == 0


@given(abort_workloads())
@settings(max_examples=40, deadline=None)
def test_pipelined_reexec_matches_serial_oracle(workload):
    accounts, stream, batch_size = workload
    initial = {a: INITIAL_BALANCE for a in accounts}
    oracle_state, oracle_committed = serial_oracle(initial, stream)

    tracer = Tracer(capacity=None)
    planner = BatchPlanner(
        initial=initial, n_workers=2, batch_size=batch_size,
        lookahead=2, deterministic=True, tracer=tracer,
    )
    metrics = planner.run(stream)

    assert {**initial, **planner.final_state()} == oracle_state
    assert committed_ids(tracer) == sorted(oracle_committed)
    assert metrics.committed == len(oracle_committed)
    assert metrics.cc_aborts == 0
    assert metrics.cascade_aborted == 0


def cascade_and_reexec(workload):
    accounts, stream, batch_size = workload
    initial = {a: INITIAL_BALANCE for a in accounts}
    return [
        BatchPlanner(
            initial=initial, n_workers=2, batch_size=batch_size,
            deterministic=True, reexecute=reexecute,
        ).run(stream)
        for reexecute in (False, True)
    ]


#: Not a theorem once aborts depend on values.  The cascade takes t1
#: down with t0 (it read t0's a2), so t2 and t3 see untouched balances
#: and both guards pass: 2 commits.  Re-execution commits t1, which
#: drains a0 below t2's floor; t2's abort leaves a1 below t3's: 1 commit.
GUARDS_FIRE_AFTER_REEXEC = (
    ["a0", "a1", "a2"],
    [
        (transfer_transaction("t0", "a2", "a1"), boom_program("t0")),
        (transfer_transaction("t1", "a0", "a2"), transfer_program(26)),
        (transfer_transaction("t2", "a0", "a1"), guarded_program(26, 62)),
        (transfer_transaction("t3", "a1", "a0"), guarded_program(13, 103)),
    ],
    2,
)


def test_reexec_can_commit_less_when_aborts_depend_on_values():
    baseline, recovered = cascade_and_reexec(GUARDS_FIRE_AFTER_REEXEC)
    assert (baseline.committed, recovered.committed) == (2, 1)


@given(abort_workloads())
@example(GUARDS_FIRE_AFTER_REEXEC)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_reexec_never_commits_less_than_the_cascade(workload):
    baseline, recovered = cascade_and_reexec(workload)

    assert recovered.cascade_aborted == 0
    assert recovered.cc_aborts == baseline.cc_aborts == 0
    # Injected aborts fire whatever was read: re-execution commits every
    # other transaction, the cascade a subset of them.
    if not any(
        getattr(program, "value_dependent", False)
        for _, program in workload[1]
    ):
        assert recovered.committed >= baseline.committed
