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
"""

from dataclasses import dataclass
from typing import Optional

from hypothesis import given, settings, strategies as st

from repro.sim.core import Simulator

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
