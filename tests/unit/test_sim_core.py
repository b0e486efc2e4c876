"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim.core import EventHandle, FifoPolicy, Simulator


class TestScheduling:
    def test_starts_at_time_zero(self):
        assert Simulator().now == 0.0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append("late"))
        sim.schedule(1.0, lambda: fired.append("early"))
        sim.schedule(2.0, lambda: fired.append("middle"))
        sim.run()
        assert fired == ["early", "middle", "late"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        fired = []
        for label in range(5):
            sim.schedule(1.0, lambda label=label: fired.append(label))
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_callbacks_can_schedule_more_events(self):
        sim = Simulator()
        fired = []

        def first():
            fired.append("first")
            sim.schedule(1.0, lambda: fired.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 2.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]

    def test_call_soon_runs_at_current_time(self):
        sim = Simulator()
        order = []

        def outer():
            sim.call_soon(lambda: order.append("soon"))
            order.append("outer")

        sim.schedule(1.0, outer)
        sim.run()
        assert order == ["outer", "soon"]
        assert sim.now == 1.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_cancel_twice_is_noop(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        handle = sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.pending == 1


    def test_handle_is_the_scheduled_event(self):
        sim = Simulator()
        handle = sim.schedule(2.0, lambda: None, tag="t")
        assert isinstance(handle, EventHandle)
        assert (handle.time, handle.tag, handle.cancelled) == (2.0, "t", False)
        assert sim._queue[0][2] is handle

    def test_cancelled_event_is_skipped_by_step(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("a")).cancel()
        sim.schedule(2.0, lambda: fired.append("b"))
        assert sim.step() is True
        assert fired == ["b"] and sim.now == 2.0
        assert sim.step() is False
        assert sim.events_processed == 1

    def test_callback_can_cancel_a_later_event(self):
        sim = Simulator()
        fired = []
        later = sim.schedule(2.0, lambda: fired.append("later"))
        sim.schedule(1.0, later.cancel)
        sim.schedule(3.0, lambda: fired.append("last"))
        sim.run()
        assert fired == ["last"]
        assert sim.events_processed == 2

    def test_cancel_after_firing_is_harmless(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("x"))
        sim.run()
        handle.cancel()
        assert fired == ["x"] and handle.cancelled and sim.pending == 0

    def test_cancelled_head_does_not_count_towards_max_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1)).cancel()
        sim.schedule(2.0, lambda: fired.append(2))
        sim.schedule(3.0, lambda: fired.append(3))
        sim.run(max_events=1)
        assert fired == [2]

    def test_cancelled_event_is_no_policy_candidate(self):
        sim = Simulator(policy=FifoPolicy())
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"), tag="x").cancel()
        sim.schedule(1.0, lambda: fired.append("b"), tag="y")
        assert [view.tag for view in sim.enabled_events()] == ["y"]
        sim.run()
        assert fired == ["b"]


class TestRunBounds:
    def test_run_until_stops_the_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 10]

    def test_run_max_events(self):
        sim = Simulator()
        fired = []
        for index in range(10):
            sim.schedule(float(index), lambda index=index: fired.append(index))
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_run_empty_queue_returns_now(self):
        sim = Simulator()
        assert sim.run() == 0.0

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 4

    def test_long_event_chain(self):
        sim = Simulator()

        def chain(remaining):
            if remaining:
                sim.schedule(0.001, lambda: chain(remaining - 1))

        chain(20_000)
        sim.run()
        assert sim.events_processed == 20_000

    def test_run_is_not_reentrant(self):
        sim = Simulator()
        captured = []

        def reenter():
            try:
                sim.run()
            except SimulationError as exc:
                captured.append(exc)

        sim.schedule(1.0, reenter)
        sim.run()
        assert len(captured) == 1

    def test_run_until_past_the_last_event_stops_the_clock_there(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.run(until=5.0) == 5.0

    def test_step_and_run_fire_the_same_sequence(self):
        def build():
            sim = Simulator()
            fired = []
            for index, delay in enumerate([3.0, 1.0, 1.0, 2.0, 0.0]):
                handle = sim.schedule(delay, lambda index=index: fired.append(index))
                if index == 3:
                    handle.cancel()
            return sim, fired

        stepped, by_step = build()
        while stepped.step():
            pass
        ran, by_run = build()
        ran.run()
        assert by_step == by_run == [4, 1, 2, 0]
        assert stepped.events_processed == ran.events_processed == 4
        assert stepped.now == ran.now == 3.0


class TestDeliveryGroups:
    """``schedule_group``: without a policy the members share one heap
    entry and fire exactly where back-to-back single events would."""

    def test_members_fire_in_order_where_single_events_would(self):
        sim = Simulator()
        fired = []
        fire = fired.append
        sim.schedule_at(1.0, lambda: fired.append("before"))
        sim.schedule_group(fire, [(1.0, "t:a", ("a",)), (1.0, "t:b", ("b",))])
        sim.schedule_at(1.0, lambda: fired.append("after"))
        sim.schedule_group(fire, [(0.5, "t:e", ("early",))])
        assert sim.pending == 5
        assert sim.step() and sim.step() and sim.step()
        assert fired == ["early", "before", "a", "b"]
        assert sim.events_processed == 4
        sim.run()
        assert fired == ["early", "before", "a", "b", "after"]
        assert sim.events_processed == 5

    def test_what_a_member_schedules_at_its_instant_fires_after_the_group(self):
        sim = Simulator()
        fired = []

        def fire(name):
            fired.append(name)
            if name == "a":
                sim.schedule_group(fire, [(1.0, "t", ("late",))])

        sim.schedule_group(fire, [(1.0, "t", ("a",)), (1.0, "t", ("b",))])
        assert sim.step()
        assert fired == ["a", "b"] and sim.events_processed == 2
        sim.run()
        assert fired == ["a", "b", "late"]

    def test_members_take_consecutive_seqs(self):
        sim = Simulator()
        sim.schedule_group(print, [(1.0, tag, ()) for tag in "xyz"])
        assert sim.schedule_at(1.0, print).seq == 3

    @pytest.mark.parametrize("install", ["before", "after"])
    def test_under_a_policy_each_member_is_its_own_event(self, install):
        sim = Simulator()
        fired = []
        fire = fired.append
        if install == "before":
            sim.policy = FifoPolicy()
        sim.schedule_group(fire, [(1.0, f"t:{n}", (n,)) for n in "abc"])
        sim.schedule_at(1.0, lambda: fired.append("single"), tag="s")
        if install == "after":
            sim.policy = FifoPolicy()
        assert [(event.seq, event.tag) for event in sim.enabled_events()] == [
            (0, "t:a"), (1, "t:b"), (2, "t:c"), (3, "s")
        ]
        assert sim.step()
        assert fired == ["a"]
        sim.run()
        assert fired == ["a", "b", "c", "single"]
        assert sim.events_processed == 4

    def test_under_a_policy_a_member_keeps_its_own_time(self):
        # The per-event path schedules what the members say, not what the
        # group assumes, so it is an independent oracle of the grouping.
        sim = Simulator(policy=FifoPolicy())
        fired = []
        members = [(1.0, "t", ("a",)), (2.0, "t", ("b",))]
        sim.schedule_group(lambda name: fired.append((sim.now, name)), members)
        sim.run()
        assert fired == [(1.0, "a"), (2.0, "b")]
