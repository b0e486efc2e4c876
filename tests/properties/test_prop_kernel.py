"""Oracle test for the simulation kernel's event queue.

Random programs of ``schedule``, ``schedule_at``, ``call_soon`` and
``cancel`` run against a naive reference: a flat list of scheduled
entries whose next event is simply the live entry with the smallest
``(time, seq)``. Fire times come from a coarse grid, so timestamp ties
are common, and fired callbacks schedule and cancel further events.
Before a step the kernel's ``pending``, ``pending_signature()`` and
``enabled_events()`` must equal what the reference list says. Whether a
step is preceded by those queries is drawn too: they drop cancelled
entries off the heap top, which a bare ``step()`` must do by itself.

The same random programs also run under a randomly choosing
:class:`SchedulerPolicy`: every decision must offer exactly the group
heads a from-scratch reference computes, and ``executed()`` must receive
the view the policy chose.
"""

from dataclasses import dataclass
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.core import EnabledEvent, SchedulerPolicy, Simulator

DELAYS = (0.0, 0.5, 1.0, 2.0)
TAGS = (None, "a", "b", "c")
EVENT_BUDGET = 40


@dataclass
class RefEvent:
    time: float
    seq: int
    tag: Optional[str]
    cancelled: bool = False
    fired: bool = False

    @property
    def live(self) -> bool:
        return not (self.cancelled or self.fired)


actions = st.one_of(
    st.tuples(st.just("schedule"), st.sampled_from(DELAYS), st.sampled_from(TAGS)),
    st.tuples(st.just("schedule_at"), st.sampled_from(DELAYS), st.sampled_from(TAGS)),
    st.tuples(st.just("call_soon"), st.just(0.0), st.sampled_from(TAGS)),
    st.tuples(st.just("cancel"), st.integers(0, 10_000), st.none()),
)


class Mirror:
    """Applies actions to a Simulator and to the reference list in step."""

    def __init__(self, data) -> None:
        self.data = data
        self.sim = Simulator()
        self.ref: list[RefEvent] = []
        self.handles = []
        self.fired: list[int] = []

    def apply(self, action) -> None:
        kind, arg, tag = action
        if kind == "cancel":
            if self.handles:
                index = arg % len(self.handles)
                self.handles[index].cancel()
                self.ref[index].cancelled = True
            return
        if len(self.ref) >= EVENT_BUDGET:
            return
        seq = len(self.ref)
        callback = lambda seq=seq: self.fire(seq)  # noqa: E731
        if kind == "schedule":
            handle = self.sim.schedule(arg, callback, tag=tag)
        elif kind == "schedule_at":
            handle = self.sim.schedule_at(self.sim.now + arg, callback, tag=tag)
        else:
            handle = self.sim.call_soon(callback, tag=tag)
        self.ref.append(RefEvent(self.sim.now + arg, seq, tag))
        self.handles.append(handle)

    def fire(self, seq: int) -> None:
        self.fired.append(seq)
        self.ref[seq].fired = True
        for action in self.data.draw(st.lists(actions, max_size=3)):
            self.apply(action)

    def live(self) -> list[RefEvent]:
        return [event for event in self.ref if event.live]

    def check_queue(self) -> None:
        live = self.live()
        assert self.sim.pending == len(live)
        assert self.sim.pending_signature() == tuple(
            sorted((event.time, event.tag or "") for event in live)
        )
        expected_enabled = []
        if live:
            head = min(event.time for event in live)
            first_of_tag: dict[Optional[str], RefEvent] = {}
            for event in live:
                if event.time == head and event.tag not in first_of_tag:
                    first_of_tag[event.tag] = event
            expected_enabled = [
                (event.time, event.seq, event.tag)
                for event in sorted(first_of_tag.values(), key=lambda event: event.seq)
            ]
        assert [
            (event.time, event.seq, event.tag) for event in self.sim.enabled_events()
        ] == expected_enabled


@settings(max_examples=200, deadline=None)
@given(st.lists(actions, min_size=1, max_size=12), st.data())
def test_kernel_fires_in_reference_order(initial, data):
    mirror = Mirror(data)
    for action in initial:
        mirror.apply(action)
    while True:
        if data.draw(st.booleans()):
            mirror.check_queue()
        live = mirror.live()
        if not live:
            assert mirror.sim.step() is False
            break
        expected = min(live, key=lambda event: (event.time, event.seq))
        already = len(mirror.fired)
        assert mirror.sim.step() is True
        assert mirror.fired[already] == expected.seq
        assert mirror.sim.now == expected.time
    # The whole run against the final reference list: every event fired
    # unless cancelled first, once each, in (time, seq) order.
    assert all(event.fired or event.cancelled for event in mirror.ref)
    assert mirror.fired == [
        event.seq
        for event in sorted(mirror.ref, key=lambda event: (event.time, event.seq))
        if event.fired
    ]
    assert mirror.sim.events_processed == len(mirror.fired)


class RandomPolicy(SchedulerPolicy):
    """Chooses by a drawn index and records what the kernel hands it."""

    def __init__(self, data) -> None:
        self.data = data
        self.offered: list[EnabledEvent] = []
        self.chosen: Optional[EnabledEvent] = None
        self.executed_views: list[EnabledEvent] = []

    def choose(self, candidates):
        self.offered = list(candidates)
        self.chosen = candidates[self.data.draw(st.integers(0, len(candidates) - 1))]
        return candidates.index(self.chosen)

    def executed(self, event):
        self.executed_views.append(event)


def _reference_heads(live: list[RefEvent]) -> list[RefEvent]:
    """Group heads of the minimal timestamp, computed from scratch."""
    head = min(event.time for event in live)
    at_head = sorted((event for event in live if event.time == head), key=lambda e: e.seq)
    heads: list[RefEvent] = []
    for event in at_head:
        if all(event.tag != kept.tag for kept in heads):
            heads.append(event)
    return heads


@settings(max_examples=200, deadline=None)
@given(st.lists(actions, min_size=1, max_size=12), st.data())
def test_policy_steps_offer_reference_group_heads(initial, data):
    """Under a random choosing policy, every decision offers exactly the
    reference group heads, and ``executed()`` receives the chosen view
    itself (on a forced step, the only candidate's view)."""
    mirror = Mirror(data)
    policy = RandomPolicy(data)
    mirror.sim.policy = policy
    for action in initial:
        mirror.apply(action)
    while True:
        live = mirror.live()
        if not live:
            assert mirror.sim.step() is False
            break
        heads = _reference_heads(live)
        policy.chosen = None
        already = len(mirror.fired)
        assert mirror.sim.step() is True
        executed = policy.executed_views[-1]
        if len(heads) > 1:
            assert [(e.time, e.seq, e.tag) for e in policy.offered] == [
                (e.time, e.seq, e.tag) for e in heads
            ]
            assert executed is policy.chosen
        else:
            assert policy.chosen is None
            assert (executed.time, executed.seq, executed.tag) == (
                heads[0].time, heads[0].seq, heads[0].tag
            )
        assert mirror.fired[already] == executed.seq
        assert mirror.sim.now == executed.time
        with pytest.raises(AttributeError):
            executed.tag = "changed"
    assert all(event.fired or event.cancelled for event in mirror.ref)
    assert len(policy.executed_views) == len(mirror.fired)
