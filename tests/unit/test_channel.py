"""Unit tests for reliable FIFO channels, delay models, availability."""

import hashlib
import random

import pytest

from repro.errors import ChannelError
from repro.resilience import ResilientTransport
from repro.resilience.campaign import SCENARIOS
from repro.sim.channel import (
    AlwaysUp,
    ExponentialDelay,
    FixedDelay,
    PeriodicAvailability,
    ReliableFifoChannel,
    UniformDelay,
    UpWindows,
)
from repro.sim.core import Simulator


def make_channel(sim, **kwargs):
    received = []
    channel = ReliableFifoChannel(sim, deliver=received.append, **kwargs)
    return channel, received


class TestDelayModels:
    def test_fixed_delay(self):
        assert FixedDelay(2.0).sample(random.Random(0)) == 2.0

    def test_fixed_delay_rejects_negative(self):
        with pytest.raises(ChannelError):
            FixedDelay(-1.0)

    def test_uniform_delay_within_bounds(self):
        model = UniformDelay(1.0, 3.0)
        rng = random.Random(42)
        for _ in range(100):
            assert 1.0 <= model.sample(rng) <= 3.0

    def test_uniform_rejects_bad_bounds(self):
        with pytest.raises(ChannelError):
            UniformDelay(3.0, 1.0)

    def test_exponential_has_floor(self):
        model = ExponentialDelay(mean=1.0, floor=0.5)
        rng = random.Random(7)
        assert all(model.sample(rng) >= 0.5 for _ in range(100))

    def test_exponential_rejects_nonpositive_mean(self):
        with pytest.raises(ChannelError):
            ExponentialDelay(mean=0.0)


class TestFifoDelivery:
    def test_message_delivered_after_delay(self):
        sim = Simulator()
        channel, received = make_channel(sim, delay=2.0)
        channel.send("hello")
        sim.run()
        assert received == ["hello"]
        assert sim.now == 2.0

    def test_order_preserved_with_random_delays(self):
        sim = Simulator()
        channel, received = make_channel(
            sim, delay=UniformDelay(0.1, 5.0), rng=random.Random(3)
        )
        for index in range(50):
            channel.send(index)
        sim.run()
        assert received == list(range(50))

    def test_later_send_never_overtakes(self):
        sim = Simulator()
        channel, received = make_channel(sim, delay=UniformDelay(0.0, 10.0), rng=random.Random(1))
        channel.send("a")
        sim.schedule(0.5, lambda: channel.send("b"))
        sim.run()
        assert received == ["a", "b"]

    def test_send_returns_delivery_time(self):
        sim = Simulator()
        channel, _ = make_channel(sim, delay=3.0)
        assert channel.send("x") == 3.0

    def test_closed_channel_rejects_send(self):
        sim = Simulator()
        channel, received = make_channel(sim, delay=1.0)
        channel.send("in-flight")
        channel.close()
        with pytest.raises(ChannelError):
            channel.send("rejected")
        sim.run()
        assert received == ["in-flight"]

    def test_stats_track_counts_and_delay(self):
        sim = Simulator()
        channel, _ = make_channel(sim, delay=2.0)
        channel.send("a")
        channel.send("b")
        assert channel.stats.in_flight == 2
        sim.run()
        assert channel.stats.messages_delivered == 2
        assert channel.stats.mean_delay == pytest.approx(2.0)
        assert channel.stats.max_queue_length == 2


class TestAvailability:
    def test_always_up(self):
        schedule = AlwaysUp()
        assert schedule.is_up(0.0) and schedule.is_up(1e9)
        assert schedule.next_up(5.0) == 5.0

    def test_up_windows_membership(self):
        schedule = UpWindows(windows=((0.0, 2.0), (5.0, 7.0)))
        assert schedule.is_up(1.0)
        assert not schedule.is_up(3.0)
        assert schedule.is_up(5.0)
        assert not schedule.is_up(4.9)
        assert schedule.is_up(100.0)  # up forever after the last window

    def test_up_windows_next_up(self):
        schedule = UpWindows(windows=((0.0, 2.0), (5.0, 7.0)))
        assert schedule.next_up(3.0) == 5.0
        assert schedule.next_up(1.0) == 1.0

    def test_up_windows_reject_overlap(self):
        with pytest.raises(ChannelError):
            UpWindows(windows=((0.0, 5.0), (3.0, 6.0)))

    def test_periodic_availability(self):
        schedule = PeriodicAvailability(period=10.0, up_fraction=0.3)
        assert schedule.is_up(1.0)
        assert not schedule.is_up(5.0)
        assert schedule.is_up(11.0)
        assert schedule.next_up(5.0) == 10.0

    def test_periodic_rejects_bad_params(self):
        with pytest.raises(ChannelError):
            PeriodicAvailability(period=0.0, up_fraction=0.5)
        with pytest.raises(ChannelError):
            PeriodicAvailability(period=1.0, up_fraction=0.0)

    def test_messages_queue_while_link_down(self):
        sim = Simulator()
        # Link down from t=0 to t=10, then up forever.
        schedule = UpWindows(windows=((-1.0, 0.0),))
        schedule = UpWindows(windows=())  # up always (degenerate)
        down_then_up = PeriodicAvailability(period=20.0, up_fraction=0.5)
        channel, received = make_channel(sim, delay=1.0, availability=down_then_up)
        # Send while down (t=12 is in the down half of [0, 20)).
        sim.schedule(12.0, lambda: channel.send("queued"))
        sim.run()
        # Transmission starts at the next up time (t=20) plus 1 delay.
        assert received == ["queued"]
        assert sim.now == 21.0

    def test_dialup_burst_preserves_order(self):
        sim = Simulator()
        down_then_up = PeriodicAvailability(period=100.0, up_fraction=0.1)
        channel, received = make_channel(sim, delay=1.0, availability=down_then_up)
        for index in range(10):
            sim.schedule(20.0 + index, lambda index=index: channel.send(index))
        sim.run()
        assert received == list(range(10))
        assert sim.now >= 100.0


class TestGoldenStreams:
    """Pin the channel's rng streams: the sha256 of the ``(sim.now,
    payload)`` delivery sequence for 60 messages sent 1.7 apart. A
    change here means every seeded run through the channel replays
    differently."""

    @staticmethod
    def delivery_digest(build):
        sim = Simulator()
        deliveries = []
        channel = build(sim, lambda payload: deliveries.append((sim.now, payload)))
        for index in range(60):
            sim.schedule(index * 1.7, lambda index=index: channel.send(index))
        sim.run()
        assert [payload for _, payload in deliveries] == list(range(60))
        return hashlib.sha256(repr(deliveries).encode()).hexdigest()

    def test_plain_channel_one_delay_draw_per_message(self):
        digest = self.delivery_digest(
            lambda sim, deliver: ReliableFifoChannel(
                sim, deliver, delay=UniformDelay(0.5, 6.0), rng=random.Random(7)
            )
        )
        assert digest == "8f1d82f544c32b5eb19a5c474c16e06e107315dd5f33f0c2a05f11a44ff84513"

    def test_resilient_transport_without_faults(self):
        digest = self.delivery_digest(
            lambda sim, deliver: ResilientTransport(
                sim, deliver, delay=UniformDelay(0.5, 6.0), rng=random.Random(7)
            )
        )
        assert digest == "df32ba4a6b7d15aa31ae27f7ac8af5d8feaf3abb59dce41e3e756000f0a7d868"

    def test_resilient_transport_under_combined_plan(self):
        digest = self.delivery_digest(
            lambda sim, deliver: ResilientTransport(
                sim, deliver, delay=UniformDelay(0.5, 6.0), rng=random.Random(7),
                faults=SCENARIOS["combined"].faults,
            )
        )
        assert digest == "b84d03fb6b0373a0258f9e025805aab5a8e945627eb959b36c4e3419304bd243"
