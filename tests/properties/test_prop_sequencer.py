"""The shared sequencer against a naive reference.

The reference below is written independently of
:class:`repro.protocols.sequencer.Sequencer`: after every arrival it
recomputes each stream's applied prefix from scratch — sequence numbers
0, 1, 2, ... for as long as each one has arrived and is not blocked.
Updates arrive as a random permutation over one to three streams, some
sequence numbers never arrive (gaps), and a random set is not ready until
the end, when readiness is lifted and every stream is released again.
"""

from collections import namedtuple
from itertools import count

import pytest
from hypothesis import given, strategies as st

from repro.errors import ProtocolError
from repro.protocols.sequencer import Sequencer

Update = namedtuple("Update", "seqno var value origin")

OWNER = "me"


def reference_prefix(arrived, stream, blocked):
    """The sequence numbers of *stream* a correct sequencer has applied."""
    prefix = []
    for seqno in count():
        if (stream, seqno) not in arrived or (stream, seqno) in blocked:
            return prefix
        prefix.append(seqno)


@st.composite
def workloads(draw):
    streams = [f"s{index}" for index in range(draw(st.integers(1, 3)))]
    updates = []
    for stream in streams:
        for seqno in range(draw(st.integers(0, 5))):
            if draw(st.booleans()) or draw(st.booleans()):  # about 1 in 4 lost
                origin = draw(st.sampled_from([OWNER, "peer"]))
                updates.append(Update(seqno, stream, f"{stream}.{seqno}", origin))
    arrivals = draw(st.permutations(updates))
    blocked = {
        (update.var, update.seqno)
        for update in updates
        if draw(st.integers(0, 4)) == 0
    }
    return streams, arrivals, blocked


def reference_apply_order(streams, arrivals, blocked):
    """Reference order in which the updates apply: arrival by arrival,
    each arrival extending its own stream's prefix; then, readiness
    lifted, each stream in turn running to its first gap."""
    arrived, order = set(), []
    by_key = {(update.var, update.seqno): update for update in arrivals}

    def extend(stream, blocked):
        for seqno in reference_prefix(arrived, stream, blocked):
            if by_key[stream, seqno] not in order:
                order.append(by_key[stream, seqno])

    for update in arrivals:
        arrived.add((update.var, update.seqno))
        extend(update.var, blocked)
    while_blocked = list(order)
    for stream in streams:
        extend(stream, set())
    return while_blocked, order


@given(workloads())
def test_streams_apply_in_order_never_past_a_gap_or_an_unready_update(workload):
    streams, arrivals, blocked = workload
    sequencer = Sequencer(OWNER)
    applied = []
    answered = []
    # Writers wait in the order their writes will apply, then the
    # writers whose writes never apply (they sit past a gap).
    while_blocked, final_order = reference_apply_order(streams, arrivals, blocked)
    writers = [update for update in final_order if update.origin == OWNER]
    writers += [u for u in arrivals if u.origin == OWNER and u not in final_order]
    for update in writers:
        sequencer.wait(update.var, update.value, lambda update=update: answered.append(update))

    def ready(update):
        return (update.var, update.seqno) not in blocked

    def apply(update, own):
        assert own == (update.origin == OWNER)
        applied.append(update)

    arrived = set()
    for update in arrivals:
        arrived.add((update.var, update.seqno))
        sequencer.hold(update.var, update)
        before = len(applied)
        released = sequencer.release(update.var, ready, apply)
        assert released == (len(applied) > before)
        assert all(later.var == update.var for later in applied[before:])
        for stream in streams:
            assert [u.seqno for u in applied if u.var == stream] == reference_prefix(
                arrived, stream, blocked
            )
    assert applied == while_blocked
    assert answered == [update for update in applied if update.origin == OWNER]

    # Lift readiness: every stream now runs to its first gap.
    for stream in streams:
        sequencer.release(stream, lambda update: True, apply)
        assert [u.seqno for u in applied if u.var == stream] == reference_prefix(
            arrived, stream, set()
        )
    assert applied == final_order
    assert answered == [update for update in applied if update.origin == OWNER]
    assert len(sequencer.state_key()[2]) == len(arrivals) - len(applied)


@given(st.lists(st.sampled_from(["a", "b", "c"]), max_size=12))
def test_assign_numbers_each_stream_from_zero(streams):
    sequencer = Sequencer(OWNER)
    numbers = [sequencer.assign(stream) for stream in streams]
    assert numbers == [streams[:index].count(stream) for index, stream in enumerate(streams)]


def test_out_of_order_acknowledgement_is_an_error():
    sequencer = Sequencer(OWNER)
    sequencer.wait("x", 1, lambda: None)
    sequencer.wait("y", 2, lambda: None)
    sequencer.hold(None, Update(0, "y", 2, OWNER))
    with pytest.raises(ProtocolError, match="acknowledged out of order"):
        sequencer.release(None, lambda update: True, lambda update, own: None)
