"""Property-based tests for the resilience layer.

The session layer's whole contract is a universally-quantified claim —
*whatever* the wire does (short of dropping everything forever), delivery
is exactly-once and in send order — so it is tested as one."""

import random

from hypothesis import given, settings, strategies as st

from repro.resilience.transport import ResilientTransport, RetryPolicy
from repro.resilience.wal import ACKED, ISSUED, RECV, SENT, WalRecord, WriteAheadLog
from repro.sim.channel import FaultPlan, UniformDelay
from repro.sim.core import Simulator

fault_plans = st.builds(
    FaultPlan,
    drop_probability=st.floats(0.0, 0.6),
    duplicate_probability=st.floats(0.0, 0.5),
    reorder_probability=st.floats(0.0, 0.5),
    reorder_spread=st.floats(0.0, 10.0),
)


@given(
    plan=fault_plans,
    count=st.integers(1, 40),
    spacing=st.floats(0.1, 5.0),
    delay_high=st.floats(0.1, 5.0),
    seed=st.integers(0, 1000),
)
@settings(max_examples=60, deadline=None)
def test_exactly_once_fifo_under_arbitrary_fault_schedules(
    plan, count, spacing, delay_high, seed
):
    """The §1.1 reliable-FIFO contract holds over any lossy wire."""
    sim = Simulator()
    received = []
    transport = ResilientTransport(
        sim,
        deliver=received.append,
        delay=UniformDelay(0.0, delay_high),
        rng=random.Random(seed),
        faults=plan,
        retry=RetryPolicy(base_timeout=3.0, max_timeout=24.0),
    )
    for index in range(count):
        sim.schedule(index * spacing, lambda index=index: transport.send(index))
    sim.run()
    assert received == list(range(count))
    assert transport.in_flight == 0


@given(
    gap_start=st.floats(1.0, 50.0),
    gap_width=st.floats(1.0, 40.0),
    count=st.integers(1, 15),
    seed=st.integers(0, 200),
)
@settings(max_examples=40, deadline=None)
def test_exactly_once_fifo_across_a_partition(gap_start, gap_width, count, seed):
    """Frames sent into a partition window are lost outright, yet every
    message still arrives exactly once, in order, after the heal."""
    sim = Simulator()
    received = []
    transport = ResilientTransport(
        sim,
        deliver=received.append,
        delay=1.0,
        rng=random.Random(seed),
        faults=FaultPlan(partitions=((gap_start, gap_start + gap_width),)),
        retry=RetryPolicy(base_timeout=2.0, max_timeout=16.0),
    )
    for index in range(count):
        sim.schedule(index * 4.0, lambda index=index: transport.send(index))
    sim.run()
    assert received == list(range(count))


wal_records = st.one_of(
    st.builds(
        WalRecord,
        kind=st.just(SENT),
        peer=st.sampled_from(["p", "q"]),
        seq=st.integers(0, 30),
        var=st.sampled_from(["x", "y"]),
        value=st.integers(0, 100),
    ),
    st.builds(
        WalRecord,
        kind=st.just(ACKED),
        peer=st.sampled_from(["p", "q"]),
        seq=st.integers(0, 31),
    ),
    st.builds(
        WalRecord,
        kind=st.just(RECV),
        peer=st.sampled_from(["p", "q"]),
        seq=st.integers(0, 30),
        var=st.sampled_from(["x", "y"]),
        value=st.integers(0, 100),
    ),
    st.builds(
        WalRecord,
        kind=st.just(ISSUED),
        peer=st.sampled_from(["p", "q"]),
        seq=st.integers(0, 30),
    ),
)


@given(
    records=st.lists(wal_records, max_size=60),
    checkpoint_every=st.integers(1, 8),
)
@settings(max_examples=80, deadline=None)
def test_checkpoints_never_lose_recovery_information(records, checkpoint_every):
    """Recovery through any checkpoint cadence equals recovery from the
    uncheckpointed log — the folded snapshot *is* the checkpoint."""
    plain = WriteAheadLog(checkpoint_every=0)
    checkpointed = WriteAheadLog(checkpoint_every=checkpoint_every)
    for record in records:
        plain.append(record)
        checkpointed.append(record)
    a, b = plain.recover(), checkpointed.recover()
    assert a.seen_pairs == b.seen_pairs
    assert a.unissued == b.unissued
    assert a.sessions == b.sessions
    assert a.last_values == b.last_values


@given(
    records=st.lists(wal_records, max_size=60),
    seed=st.integers(0, 100),
)
@settings(max_examples=60, deadline=None)
def test_recv_without_issued_stays_unissued(records, seed):
    """Model check of the fold: the unissued list is exactly the RECVs
    whose (peer, seq) has no later ISSUED, in arrival order — the
    invariant recovery's exactly-once replay rests on."""
    wal = WriteAheadLog(checkpoint_every=0)
    for record in records:
        wal.append(record)
    expected = []
    for index, record in enumerate(records):
        if record.kind != RECV:
            continue
        retired = any(
            later.kind == ISSUED
            and later.peer == record.peer
            and later.seq == record.seq
            for later in records[index + 1 :]
        )
        if not retired:
            expected.append((record.peer, record.seq, record.var, record.value))
    assert wal.recover().unissued == expected
