"""Unit tests for the resilience layer's transport: fault plans, the
lossy wire (a ReliableFifoChannel driven by a FaultPlan), retry policies,
and the exactly-once FIFO session."""

import random

import pytest

from repro.errors import ChannelError
from repro.resilience import NO_FAULTS, FaultPlan, ResilientTransport, RetryPolicy
from repro.sim.channel import ReliableFifoChannel, UniformDelay
from repro.sim.core import Simulator


def make_transport(sim, seed=0, **kwargs):
    received = []
    transport = ResilientTransport(
        sim, deliver=received.append, rng=random.Random(seed), **kwargs
    )
    return transport, received


class TestFaultPlan:
    def test_no_faults_is_benign(self):
        assert NO_FAULTS.is_benign
        assert not FaultPlan(drop_probability=0.1).is_benign
        assert not FaultPlan(partitions=((1.0, 2.0),)).is_benign

    def test_certain_drop_rejected_for_liveness(self):
        with pytest.raises(ChannelError):
            FaultPlan(drop_probability=1.0)

    def test_probabilities_out_of_range_rejected(self):
        with pytest.raises(ChannelError):
            FaultPlan(duplicate_probability=1.5)
        with pytest.raises(ChannelError):
            FaultPlan(reorder_probability=-0.1)

    def test_negative_spread_rejected(self):
        with pytest.raises(ChannelError):
            FaultPlan(reorder_spread=-1.0)

    def test_partitions_must_be_disjoint_and_increasing(self):
        with pytest.raises(ChannelError):
            FaultPlan(partitions=((5.0, 3.0),))
        with pytest.raises(ChannelError):
            FaultPlan(partitions=((0.0, 10.0), (5.0, 15.0)))

    def test_partitioned_at_is_half_open(self):
        plan = FaultPlan(partitions=((10.0, 20.0),))
        assert not plan.partitioned_at(9.9)
        assert plan.partitioned_at(10.0)
        assert plan.partitioned_at(19.9)
        assert not plan.partitioned_at(20.0)

    def test_next_heal(self):
        plan = FaultPlan(partitions=((10.0, 20.0), (30.0, 40.0)))
        assert plan.next_heal(5.0) == 5.0
        assert plan.next_heal(15.0) == 20.0
        assert plan.next_heal(35.0) == 40.0


class TestLossyChannel:
    """The lossy wire: a ReliableFifoChannel driven by a FaultPlan."""

    def test_no_faults_matches_reliable_fifo(self):
        sim = Simulator()
        received = []
        channel = ReliableFifoChannel(
            sim, deliver=received.append, delay=UniformDelay(0.0, 5.0),
            rng=random.Random(3), faults=NO_FAULTS,
        )
        for index in range(40):
            channel.send(index)
        sim.run()
        assert received == list(range(40))
        assert channel.frames_dropped == 0
        assert channel.frames_duplicated == 0

    def test_partition_window_loses_frames(self):
        sim = Simulator()
        received = []
        channel = ReliableFifoChannel(
            sim, deliver=received.append, delay=1.0,
            faults=FaultPlan(partitions=((10.0, 20.0),)),
        )
        channel.send("before")
        sim.schedule_at(15.0, lambda: channel.send("during"))
        sim.schedule_at(25.0, lambda: channel.send("after"))
        sim.run()
        assert received == ["before", "after"]
        assert channel.frames_dropped == 1

    def test_is_up_and_next_up_time_include_partitions(self):
        sim = Simulator()
        channel = ReliableFifoChannel(
            sim, deliver=lambda m: None,
            faults=FaultPlan(partitions=((10.0, 20.0),)),
        )
        assert channel.is_up
        observed = {}

        def probe():
            observed["up"] = channel.is_up
            observed["heal"] = channel.next_up_time()

        sim.schedule_at(12.0, probe)
        sim.run()
        assert observed == {"up": False, "heal": 20.0}

    def test_certain_duplication_delivers_twice(self):
        sim = Simulator()
        received = []
        channel = ReliableFifoChannel(
            sim, deliver=received.append, delay=1.0,
            rng=random.Random(0),
            faults=FaultPlan(duplicate_probability=1.0),
        )
        for index in range(5):
            channel.send(index)
        sim.run()
        assert sorted(received) == sorted(list(range(5)) * 2)
        assert channel.frames_duplicated == 5

    def test_reordering_escapes_fifo_holdback(self):
        sim = Simulator()
        received = []
        channel = ReliableFifoChannel(
            sim, deliver=received.append, delay=UniformDelay(0.0, 8.0),
            rng=random.Random(2),
            faults=FaultPlan(reorder_probability=1.0, reorder_spread=20.0),
        )
        for index in range(30):
            channel.send(index)
        sim.run()
        assert sorted(received) == list(range(30))
        assert received != list(range(30))  # seeded: reordering did happen
        assert channel.frames_reordered == 30

    def test_drop_stream_independent_of_other_knobs(self):
        """Toggling duplication must not perturb which frames get dropped."""

        def dropped_with(plan):
            sim = Simulator()
            channel = ReliableFifoChannel(
                sim, deliver=lambda m: None, delay=1.0,
                rng=random.Random(11), faults=plan,
            )
            drops = []
            for index in range(200):
                before = channel.frames_dropped
                channel.send(index)
                if channel.frames_dropped > before:
                    drops.append(index)
            sim.run()
            return drops

        plain = dropped_with(FaultPlan(drop_probability=0.3))
        with_dup = dropped_with(
            FaultPlan(drop_probability=0.3, duplicate_probability=0.9)
        )
        assert plain == with_dup


class TestRetryPolicy:
    def test_bad_configs_rejected(self):
        with pytest.raises(ChannelError):
            RetryPolicy(base_timeout=0.0)
        with pytest.raises(ChannelError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ChannelError):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(ChannelError):
            RetryPolicy(base_timeout=10.0, max_timeout=5.0)

    def test_timeout_grows_exponentially_and_caps(self):
        policy = RetryPolicy(base_timeout=2.0, multiplier=2.0, max_timeout=16.0, jitter=0.0)
        rng = random.Random(0)
        assert [policy.timeout(n, rng) for n in range(6)] == [
            2.0, 4.0, 8.0, 16.0, 16.0, 16.0,
        ]

    def test_jitter_bounds(self):
        policy = RetryPolicy(base_timeout=4.0, jitter=0.5)
        rng = random.Random(9)
        for _ in range(100):
            assert 4.0 <= policy.timeout(0, rng) <= 6.0


class TestResilientTransport:
    def test_clean_wire_delivers_fifo_without_retransmits(self):
        sim = Simulator()
        transport, received = make_transport(sim, delay=UniformDelay(0.0, 3.0))
        for index in range(25):
            transport.send(index)
        sim.run()
        assert received == list(range(25))
        assert transport.wire.retransmissions == 0
        assert transport.stats.messages_delivered == 25
        assert transport.in_flight == 0

    def test_exactly_once_fifo_under_heavy_faults(self):
        sim = Simulator()
        transport, received = make_transport(
            sim, delay=UniformDelay(0.5, 2.0),
            faults=FaultPlan(
                drop_probability=0.4,
                duplicate_probability=0.3,
                reorder_probability=0.3,
                reorder_spread=6.0,
            ),
        )
        for index in range(50):
            sim.schedule(index * 0.7, lambda index=index: transport.send(index))
        sim.run()
        assert received == list(range(50))
        assert transport.wire.retransmissions > 0
        assert transport.in_flight == 0

    def test_partition_forces_retransmission_then_delivery(self):
        sim = Simulator()
        transport, received = make_transport(
            sim, delay=1.0,
            faults=FaultPlan(partitions=((0.0, 30.0),)),
            retry=RetryPolicy(base_timeout=4.0, jitter=0.0),
        )
        transport.send("pair")
        sim.run()
        assert received == ["pair"]
        assert transport.wire.retransmissions >= 1
        assert transport.frames_lost_on_wire >= 1

    def test_backoff_doubles_without_ack_progress(self):
        sim = Simulator()
        transport, _ = make_transport(
            sim, delay=1.0,
            faults=FaultPlan(partitions=((0.0, 100.0),)),
            retry=RetryPolicy(
                base_timeout=2.0, multiplier=2.0, max_timeout=64.0, jitter=0.0
            ),
        )
        attempts = []
        original = transport._transmit

        def spying_transmit(seq, message):
            attempts.append(sim.now)
            return original(seq, message)

        transport._transmit = spying_transmit
        transport.send("pair")
        sim.run()
        gaps = [b - a for a, b in zip(attempts, attempts[1:])]
        assert gaps[:4] == [2.0, 4.0, 8.0, 16.0]

    def test_ack_progress_resets_backoff(self):
        sim = Simulator()
        transport, received = make_transport(
            sim, delay=1.0,
            faults=FaultPlan(partitions=((0.0, 40.0), (41.0, 80.0))),
            retry=RetryPolicy(base_timeout=4.0, multiplier=2.0, jitter=0.0),
        )
        transport.send("first")
        # Lands in the 1-wide gap at t=40; its ack resets the backoff for
        # the second pair, sent deep inside the second partition.
        sim.schedule_at(50.0, lambda: transport.send("second"))
        sim.run()
        assert received == ["first", "second"]
        assert transport._backoff_level == 0

    def test_duplicate_frames_filtered_not_redelivered(self):
        sim = Simulator()
        transport, received = make_transport(
            sim, delay=1.0,
            faults=FaultPlan(duplicate_probability=0.9),
        )
        for index in range(20):
            transport.send(index)
        sim.run()
        assert received == list(range(20))
        assert transport.wire.stale_frames > 0

    def test_send_on_closed_transport_raises(self):
        sim = Simulator()
        transport, _ = make_transport(sim)
        transport.close()
        with pytest.raises(ChannelError):
            transport.send("too late")

    def test_receiver_down_refuses_frames_until_up(self):
        sim = Simulator()
        up = {"receiver": False}
        received = []
        transport = ResilientTransport(
            sim, deliver=received.append, delay=1.0,
            rng=random.Random(0),
            retry=RetryPolicy(base_timeout=5.0, jitter=0.0),
            receiver_up=lambda: up["receiver"],
        )
        transport.send("pair")
        sim.schedule_at(3.0, lambda: up.__setitem__("receiver", True))
        sim.run()
        assert received == ["pair"]
        assert transport.wire.frames_refused >= 1
        assert transport.wire.retransmissions >= 1

    def test_freeze_then_restore_sender_resumes_numbering(self):
        sim = Simulator()
        transport, received = make_transport(
            sim, delay=1.0,
            faults=FaultPlan(partitions=((0.0, 10.0),)),
            retry=RetryPolicy(base_timeout=2.0, jitter=0.0),
        )
        transport.send("a")
        transport.send("b")
        sim.schedule_at(5.0, transport.freeze_sender)
        # Crash wiped the sender; the WAL replay hands back the original
        # sequence numbers, so the receiver sees a seamless session.
        sim.schedule_at(20.0, lambda: transport.restore_sender(2, [(0, "a"), (1, "b")]))
        sim.run()
        assert received == ["a", "b"]
        assert transport._next_seq == 2

    def test_restore_receiver_reacks_highwater_and_drops_ooo_buffer(self):
        sim = Simulator()
        transport, received = make_transport(sim, delay=1.0)
        transport.send("a")
        transport.send("b")
        sim.run()
        acks_before = transport.wire.acks_sent
        transport._out_of_order[7] = "ghost"
        transport.restore_receiver(2)
        sim.run()
        assert transport.wire.acks_sent == acks_before + 1
        assert transport._out_of_order == {}
        assert received == ["a", "b"]

    def test_durability_hooks_fire_in_order(self):
        sim = Simulator()
        events = []
        transport = ResilientTransport(
            sim, deliver=lambda m: events.append(("app", m)), delay=1.0,
            rng=random.Random(0),
        )
        transport.on_assign = lambda seq, m: events.append(("assign", seq, m))
        transport.on_deliver = lambda seq, m: events.append(("deliver", seq, m))
        transport.on_ack_progress = lambda cum: events.append(("acked", cum))
        transport.send("x")
        sim.run()
        assert events == [
            ("assign", 0, "x"),
            ("deliver", 0, "x"),
            ("app", "x"),
            ("acked", 1),
        ]
