"""Unit tests for the assumption-violating channel configurations (X7):
a ReliableFifoChannel whose FaultPlan breaks exactly one assumption."""

import random

import pytest

from repro.errors import ChannelError
from repro.obs.instruments import combine
from repro.obs.tracer import ListSink, Tracer
from repro.sim.channel import FaultPlan, ReliableFifoChannel, UniformDelay
from repro.sim.core import Simulator

#: Reliable but NOT FIFO: every frame escapes the hold-back.
REORDER = FaultPlan(reorder_probability=1.0, reorder_spread=0.0)


def duplicating(probability):
    """FIFO and loss-free, but at-least-once."""
    return FaultPlan(duplicate_probability=probability)


def drive(faults, count=40, seed=3):
    sim = Simulator()
    received = []
    channel = ReliableFifoChannel(
        sim,
        deliver=received.append,
        delay=UniformDelay(0.1, 10.0),
        rng=random.Random(seed),
        faults=faults,
    )
    for index in range(count):
        sim.schedule(index * 0.1, lambda index=index: channel.send(index))
    sim.run()
    return channel, received


class TestReorderingChannel:
    def test_delivers_everything_exactly_once(self):
        _, received = drive(REORDER)
        assert sorted(received) == list(range(40))

    def test_actually_reorders(self):
        _, received = drive(REORDER)
        assert received != sorted(received)

    def test_stats_track_deliveries(self):
        channel, received = drive(REORDER)
        assert channel.stats.messages_sent == 40
        assert channel.stats.messages_delivered == 40

    def test_tracing_records_send_and_recv(self):
        sink = ListSink()
        sim = Simulator(instruments=combine(Tracer(sink), None))
        channel = ReliableFifoChannel(
            sim, deliver=lambda message: None, delay=1.0, name="wire", faults=REORDER
        )
        for index in range(3):
            channel.send(index)
        sim.run()
        kinds = [event.kind for event in sink.events if event.component == "wire"]
        assert kinds.count("msg.send") == 3
        assert kinds.count("msg.recv") == 3

    def test_send_after_close_raises(self):
        sim = Simulator()
        received = []
        channel = ReliableFifoChannel(sim, deliver=received.append, delay=1.0, faults=REORDER)
        channel.send("in-flight")
        channel.close()
        with pytest.raises(ChannelError):
            channel.send("rejected")
        sim.run()
        assert received == ["in-flight"]

    def test_each_reordered_frame_is_its_own_scheduling_domain(self):
        sim = Simulator()
        channel = ReliableFifoChannel(sim, deliver=lambda m: None, delay=1.0,
                                      name="wire", faults=REORDER)
        channel.send("a")
        channel.send("b")
        assert [event.tag for event in sim.enabled_events()] == ["chan:wire#1", "chan:wire#2"]


class TestDuplicatingChannel:
    def test_originals_stay_fifo(self):
        _, received = drive(duplicating(0.5))
        firsts = []
        seen = set()
        for message in received:
            if message not in seen:
                seen.add(message)
                firsts.append(message)
        assert firsts == sorted(firsts)

    def test_duplicates_injected_and_counted(self):
        channel, received = drive(duplicating(0.7))
        assert channel.frames_duplicated > 0
        assert len(received) == 40 + channel.frames_duplicated

    def test_zero_probability_is_exactly_once(self):
        channel, received = drive(duplicating(0.0))
        assert channel.frames_duplicated == 0
        assert received == list(range(40))

    def test_every_message_delivered_at_least_once(self):
        _, received = drive(duplicating(0.9))
        assert set(received) == set(range(40))

    def test_originals_share_the_channel_tag_and_copies_get_their_own(self):
        sim = Simulator()
        channel = ReliableFifoChannel(sim, deliver=lambda m: None, delay=1.0,
                                      name="wire", faults=duplicating(1.0))
        channel.send("a")
        channel.send("b")
        tags = [tag for _, tag in sim.pending_signature()]
        assert tags == ["chan:wire", "chan:wire", "chan:wire#dup1", "chan:wire#dup2"]
