"""The shared causal hold-back queue against a naive reference loop.

The reference below is written independently of
:class:`repro.protocols.holdback.CausalHoldBack`: it rebuilds the waiting
list on every pass instead of removing from a snapshot. Readiness is
random and changes as items are applied: an item waits for a random set
of other items and for a random number of applies before it.
:meth:`CausalHoldBack.arrive`, which settles an item arriving at an empty
buffer without a pass, is held to the same reference: one arrival, then
passes until one applies nothing. So is the vector-causal delivery
handler, which spells that arrival out with its own readiness test on
the replica counters.
"""

from hypothesis import given, settings, strategies as st

from repro.memory.system import DSMSystem
from repro.protocols import get
from repro.protocols.holdback import CausalHoldBack
from repro.protocols.messages import CausalUpdate
from repro.sim.clock import VectorClock
from repro.sim.core import Simulator


def reference_passes(arrivals, ready):
    """Yield (applied so far, still waiting) after each pass over the
    waiting items in arrival order, until a pass applies nothing."""
    waiting = list(arrivals)
    applied = []
    while True:
        kept = []
        for item in waiting:
            if ready(item, applied):
                applied.append(item)
            else:
                kept.append(item)
        yield list(applied), kept
        if len(kept) == len(waiting):
            return
        waiting = kept


@st.composite
def workloads(draw):
    count = draw(st.integers(0, 10))
    arrivals = draw(st.permutations(range(count)))
    # Dependencies may name items that never arrive (ids >= count), so
    # some items stay held back for good.
    deps = {
        item: draw(st.frozensets(st.integers(0, count + 2), max_size=3))
        for item in arrivals
    }
    quorum = {item: draw(st.integers(0, count)) for item in arrivals}

    def ready(item, applied):
        return deps[item] <= set(applied) and len(applied) >= quorum[item]

    return arrivals, ready


def _loaded(arrivals):
    holdback = CausalHoldBack()
    for item in arrivals:
        holdback.add(item)
    return holdback


@given(workloads())
def test_drain_matches_reference(workload):
    arrivals, ready = workload
    *_, (expected_applied, expected_waiting) = reference_passes(arrivals, ready)
    holdback = _loaded(arrivals)
    applied = []
    holdback.drain(lambda item: ready(item, applied), applied.append)
    assert applied == expected_applied
    assert holdback.state_key() == (tuple(expected_waiting), len(arrivals))


@given(workloads())
def test_each_release_is_one_reference_pass(workload):
    arrivals, ready = workload
    holdback = _loaded(arrivals)
    applied = []
    for expected_applied, expected_waiting in reference_passes(arrivals, ready):
        before = len(applied)
        released = holdback.release(lambda item: ready(item, applied), applied.append)
        assert applied == expected_applied
        assert released == (len(expected_applied) > before)
        assert holdback.state_key()[0] == tuple(expected_waiting)


def test_later_items_see_applies_earlier_in_the_same_pass():
    # "b" waits for "a", which arrives after it; "c" waits for "a" and
    # arrives after it, so one pass releases "a" and "c" but not "b".
    needs = {"a": set(), "b": {"a"}, "c": {"a"}}
    holdback = _loaded(["b", "a", "c"])
    applied = []

    def ready(item):
        return needs[item] <= set(applied)

    assert holdback.release(ready, applied.append)
    assert applied == ["a", "c"]
    assert holdback.release(ready, applied.append)
    assert applied == ["a", "c", "b"]
    assert not holdback.release(ready, applied.append)
    assert holdback.state_key() == ((), 3)


@given(workloads())
def test_arrivals_match_reference(workload):
    # Items arrive one at a time and each arrival drains, as in a
    # protocol's delivery handler; most reach an empty buffer and take
    # arrive's direct path.
    arrivals, ready = workload
    holdback = CausalHoldBack()
    applied = []
    expected_applied, expected_waiting, expected_peak = [], [], 0
    for item in arrivals:
        holdback.arrive(item, lambda item: ready(item, applied), applied.append)
        expected_waiting = expected_waiting + [item]
        expected_peak = max(expected_peak, len(expected_waiting))
        *_, (after, expected_waiting) = reference_passes(
            expected_waiting, lambda item, _applied: ready(item, expected_applied + _applied)
        )
        expected_applied += after
        assert applied == expected_applied
        assert holdback.state_key() == (tuple(expected_waiting), expected_peak)


def test_arrive_applies_a_ready_item_at_an_empty_buffer_directly():
    holdback = CausalHoldBack()
    applied = []
    holdback.arrive("a", lambda item: True, applied.append)
    assert applied == ["a"]
    assert holdback.state_key() == ((), 1)
    holdback.arrive("b", lambda item: False, applied.append)
    holdback.arrive("c", lambda item: item == "c", applied.append)
    assert applied == ["a", "c"]
    assert holdback.state_key() == (("b",), 2)


@st.composite
def causal_updates(draw):
    """Writes by processes 1-3 with causally consistent timestamps (each
    write depends on its sender's earlier writes and on a random set of
    earlier writes by others), arriving at process 0 in a random order.
    Some writes never arrive, so updates that depend on them stay held."""
    clocks = {sender: {} for sender in (1, 2, 3)}
    writes = []
    for index in range(draw(st.integers(0, 9))):
        sender = draw(st.sampled_from((1, 2, 3)))
        entries = dict(clocks[sender])
        for dep in draw(st.frozensets(st.integers(0, max(index - 1, 0)), max_size=2)):
            if dep < len(writes):
                for proc, count in writes[dep].ts_entries.items():
                    entries[proc] = max(entries.get(proc, 0), count)
        entries[sender] = entries.get(sender, 0) + 1
        clocks[sender] = entries
        writes.append(_Write(sender, index, entries))
    arrivals = draw(st.permutations(writes))
    kept = draw(st.lists(st.booleans(), min_size=len(arrivals), max_size=len(arrivals)))
    return [write for write, keep in zip(arrivals, kept) if keep]


class _Write:
    def __init__(self, sender, index, ts_entries):
        self.sender, self.index, self.ts_entries = sender, index, dict(ts_entries)
        self.update = CausalUpdate(
            var=f"v{index}", value=index, ts=VectorClock(ts_entries),
            sender_index=sender, sender_name=f"p{sender}",
        )


def _naive_ready(write, applied):
    seen = {}
    for done in applied:
        seen[done.sender] = seen.get(done.sender, 0) + 1
    if write.ts_entries[write.sender] != seen.get(write.sender, 0) + 1:
        return False
    return all(
        count <= seen.get(proc, 0)
        for proc, count in write.ts_entries.items()
        if proc != write.sender
    )


@settings(max_examples=200, deadline=None)
@given(causal_updates())
def test_vector_causal_arrivals_match_reference(arrivals):
    system = DSMSystem(Simulator(), "S", get("vector-causal"))
    mcs = system.add_application("R", []).mcs
    assert mcs.proc_index == 0
    by_value = {write.index: write for write in arrivals}
    applied, expected_applied, expected_waiting, expected_peak = [], [], [], 0
    commit = mcs._commit

    def logged(update):
        applied.append(by_value[update.value])
        commit(update)

    mcs._commit = logged
    for write in arrivals:
        mcs._on_message(write.update.sender_name, write.update)
        expected_waiting = expected_waiting + [write]
        expected_peak = max(expected_peak, len(expected_waiting))
        *_, (after, expected_waiting) = reference_passes(
            expected_waiting,
            lambda item, _applied: _naive_ready(item, expected_applied + _applied),
        )
        expected_applied += after
        assert applied == expected_applied
        assert mcs._holdback.state_key() == (
            tuple(item.update for item in expected_waiting),
            expected_peak,
        )
    counts = {}
    for write in expected_applied:
        counts[write.sender] = counts.get(write.sender, 0) + 1
    assert mcs.clock == VectorClock(counts)
