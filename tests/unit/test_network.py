"""Unit tests for the per-system network fabric."""

import pytest

from repro.errors import ConfigurationError
from repro.sim import rng as rng_mod
from repro.sim.channel import (
    FaultPlan,
    ReliableFifoChannel,
    UniformDelay,
    schedule_deliveries,
)
from repro.sim.core import FifoPolicy, Simulator
from repro.sim.network import Network


def make_net(node_names, segments=None, **kwargs):
    sim = Simulator()
    net = Network(sim, **kwargs)
    inboxes = {}
    for index, name in enumerate(node_names):
        inbox = []
        inboxes[name] = inbox
        segment = segments[index] if segments else "default"
        net.add_node(name, lambda src, payload, _inbox=inbox: _inbox.append((src, payload)), segment)
    return sim, net, inboxes


class TestNodes:
    def test_duplicate_node_rejected(self):
        sim, net, _ = make_net(["a"])
        with pytest.raises(ConfigurationError):
            net.add_node("a", lambda src, payload: None)

    def test_node_ids_and_segments(self):
        _, net, _ = make_net(["a", "b"], segments=["lan0", "lan1"])
        assert set(net.node_ids) == {"a", "b"}
        assert net.segment_of("b") == "lan1"
        assert net.has_node("a") and not net.has_node("zzz")


class TestSend:
    def test_point_to_point_delivery(self):
        sim, net, inboxes = make_net(["a", "b"], default_delay=2.0)
        net.send("a", "b", "hi")
        sim.run()
        assert inboxes["b"] == [("a", "hi")]
        assert inboxes["a"] == []

    def test_unknown_endpoints_rejected(self):
        sim, net, _ = make_net(["a"])
        with pytest.raises(ConfigurationError):
            net.send("a", "ghost", "x")
        with pytest.raises(ConfigurationError):
            net.send("ghost", "a", "x")

    def test_per_pair_fifo(self):
        sim, net, inboxes = make_net(["a", "b"], default_delay=1.0)
        for index in range(20):
            net.send("a", "b", index)
        sim.run()
        assert [payload for _, payload in inboxes["b"]] == list(range(20))

    def test_broadcast_counts_messages(self):
        sim, net, inboxes = make_net(["a", "b", "c", "d"])
        count = net.broadcast("a", "update")
        sim.run()
        assert count == 3
        assert inboxes["a"] == []
        assert all(inboxes[node] == [("a", "update")] for node in ("b", "c", "d"))

    def test_messages_sent_counter(self):
        sim, net, _ = make_net(["a", "b", "c"])
        net.broadcast("a", "u")
        net.send("b", "c", "v")
        assert net.messages_sent == 3

    def test_set_delay_override(self):
        sim, net, inboxes = make_net(["a", "b", "c"], default_delay=1.0)
        net.set_delay("a", "c", 50.0)
        net.send("a", "b", "fast")
        net.send("a", "c", "slow")
        sim.run(until=2.0)
        assert inboxes["b"] and not inboxes["c"]
        sim.run()
        assert inboxes["c"] == [("a", "slow")]

    def test_set_delay_after_use_rejected(self):
        sim, net, _ = make_net(["a", "b"])
        net.send("a", "b", "x")
        with pytest.raises(ConfigurationError):
            net.set_delay("a", "b", 9.0)


class TestBroadcastGrouping:
    """Without a policy a broadcast's same-instant deliveries are one heap
    entry, so one step delivers them all; a policy sees each delivery as
    its own tagged event. The event count is the same either way."""

    @pytest.mark.parametrize("policy, steps", [(None, 1), (FifoPolicy(), 4)])
    def test_fixed_delay_fan_out(self, policy, steps):
        sim, net, inboxes = make_net(["a", "b", "c", "d", "e"], default_delay=2.0)
        sim.policy = policy
        net.broadcast("a", "u")
        assert len(sim._queue) == steps
        assert sim.pending == 4
        taken = 0
        while sim.step():
            taken += 1
        assert taken == steps
        assert sim.events_processed == 4
        assert sim.now == 2.0
        assert all(inboxes[node] == [("a", "u")] for node in "bcde")

    def test_policy_sees_one_tagged_event_per_delivery(self):
        sim, net, _ = make_net(["a", "b", "c"], default_delay=2.0)
        sim.policy = FifoPolicy()
        net.broadcast("a", "u")
        assert [event.tag for event in sim.enabled_events()] == [
            "chan:net:a->b", "chan:net:a->c"
        ]

    def test_a_different_instant_closes_the_group(self):
        # a->c is slower, so it splits the fan-out: b and d share an
        # instant but not a heap entry.
        sim, net, inboxes = make_net(["a", "b", "c", "d"], default_delay=2.0)
        net.set_delay("a", "c", 5.0)
        net.broadcast("a", "u")
        fired = []
        while sim.step():
            fired.append((sim.now, sim.events_processed))
        assert fired == [(2.0, 1), (2.0, 2), (5.0, 3)]
        assert all(inboxes[node] == [("a", "u")] for node in "bcd")

    @pytest.mark.parametrize("reorder, entries", [(False, 1), (True, 3)])
    def test_a_reordered_frame_closes_the_group(self, reorder, entries):
        # With no spread the reordered frame falls on the shared instant,
        # but it is not FIFO, so it is scheduled on its own.
        sim = Simulator()
        got = []
        channels = [ReliableFifoChannel(sim, got.append, delay=1.0, name=n) for n in "xyz"]
        if reorder:
            channels[1].faults = FaultPlan(reorder_probability=1.0, reorder_spread=0.0)
        deliveries = []
        for channel in channels:
            channel.admit(channel.name, deliveries)
        schedule_deliveries(sim, deliveries)
        assert len(sim._queue) == entries
        sim.run()
        assert got == ["x", "y", "z"] and sim.events_processed == 3


def traced_net(node_names, segments):
    """A network on a simulator whose tracer records into a list."""
    from repro.obs.instruments import combine
    from repro.obs.tracer import ListSink, Tracer

    sink = ListSink()
    sim = Simulator(instruments=combine(Tracer(sink), None))
    net = Network(sim, name="n")
    for node, segment in zip(node_names, segments):
        net.add_node(node, lambda src, payload: None, segment)
    return sim, net, sink


def sends(sink):
    return [event for event in sink.events if event.kind == "net.send"]


class TestTrafficListeners:
    """Trace sinks listening to a network see one ``net.send`` per send."""

    def test_listener_sees_segments(self):
        sim, net, sink = traced_net(["a", "b"], ["lan0", "lan1"])
        net.send("a", "b", "payload")
        [event] = sends(sink)
        assert event.component == "a"
        assert event.ts == sim.now
        assert dict(event.args) == {
            "network": "n",
            "dst": "b",
            "src_segment": "lan0",
            "dst_segment": "lan1",
            "payload": "payload",
        }

    def test_same_segment_does_not_cross(self):
        _, net, sink = traced_net(["a", "b"], ["lan0", "lan0"])
        net.send("a", "b", "payload")
        [event] = sends(sink)
        assert event.arg("src_segment") == event.arg("dst_segment") == "lan0"


class TestObservedSends:
    """An observed send is traced and counted only when something observes
    it; every observer must still see every send, and the unobserved path
    must deliver the same traffic."""

    def run_traffic(self, net, sim):
        net.broadcast("a", "u1")
        net.send("b", "c", "v")
        net.send("c", "a", "w")
        net.broadcast("c", "u2")
        sim.run()

    @pytest.mark.parametrize("listen,count", [(True, False), (False, True), (True, True)])
    def test_listener_and_counters_see_every_send(self, listen, count):
        from repro.obs.instruments import combine
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracer import ListSink, Tracer

        registry = MetricsRegistry()
        sink = ListSink()
        sim = Simulator(
            instruments=combine(
                Tracer(sink) if listen else None, registry if count else None
            )
        )
        net = Network(sim, name="n")
        for node, segment in (("a", "lan0"), ("b", "lan0"), ("c", "lan1")):
            net.add_node(node, lambda src, payload: None, segment)
        self.run_traffic(net, sim)
        traced = [
            (event.component, event.arg("dst"), event.arg("payload"),
             event.arg("src_segment"), event.arg("dst_segment"))
            for event in sends(sink)
        ]
        assert traced == ([
            ("a", "b", "u1", "lan0", "lan0"), ("a", "c", "u1", "lan0", "lan1"),
            ("b", "c", "v", "lan0", "lan1"), ("c", "a", "w", "lan1", "lan0"),
            ("c", "a", "u2", "lan1", "lan0"), ("c", "b", "u2", "lan1", "lan0"),
        ] if listen else [])
        expected_sends, expected_crossings = (6, 5) if count else (0, 0)
        assert registry.total("net_messages_total") == expected_sends
        # a->c, b->c, c->a twice and c->b cross between lan0 and lan1.
        assert registry.total("bottleneck_crossings_total") == expected_crossings
        if listen and count:
            crossing = [event for event in traced if event[3] != event[4]]
            assert len(traced) == registry.total("net_messages_total")
            assert len(crossing) == registry.total("bottleneck_crossings_total")
        assert net.messages_sent == 6

    def test_unobserved_sends_deliver_the_same_traffic(self):
        from repro.obs.instruments import combine
        from repro.obs.tracer import ListSink, Tracer

        observed_sim, observed, observed_inboxes = make_net(["a", "b", "c"])
        observed_sim.instruments = combine(Tracer(ListSink()), None)
        plain_sim, plain, plain_inboxes = make_net(["a", "b", "c"])
        self.run_traffic(observed, observed_sim)
        self.run_traffic(plain, plain_sim)
        assert plain_inboxes == observed_inboxes
        assert plain.messages_sent == observed.messages_sent == 6
        assert plain_sim.events_processed == observed_sim.events_processed


class TestChannelStreams:
    """Network channels derive their rng from (seed, network, src, dst)
    on the first draw; a fixed-delay link never derives one."""

    @staticmethod
    def _arrivals(sim, send, deliveries):
        for index in range(20):
            sim.schedule(0.25 * index, lambda index=index: send(index))
        sim.run()
        return repr(deliveries)

    def test_uniform_link_matches_an_eagerly_derived_stream(self):
        delay = UniformDelay(0.5, 3.0)
        sim = Simulator()
        net = Network(sim, seed=7, name="S3")
        lazy = []
        net.add_node("a", lambda src, payload: None)
        net.add_node("b", lambda src, payload: lazy.append((sim.now, payload)))
        net.set_delay("a", "b", delay)

        eager_sim = Simulator()
        eager = []
        channel = ReliableFifoChannel(
            eager_sim,
            deliver=lambda payload: eager.append((eager_sim.now, payload)),
            delay=delay,
            rng=rng_mod.derive(7, "S3", "a", "b"),
        )
        assert self._arrivals(sim, lambda i: net.send("a", "b", i), lazy) == (
            self._arrivals(eager_sim, channel.send, eager)
        )
        assert len(lazy) == 20 and len({time for time, _ in lazy}) > 1

    def test_fixed_delay_link_never_derives_a_stream(self, monkeypatch):
        derived = []
        monkeypatch.setattr(rng_mod, "derive", lambda *labels: derived.append(labels))
        sim, net, inboxes = make_net(["a", "b", "c"], default_delay=1.0)
        for index in range(5):
            net.broadcast("a", index)
            net.send("b", "c", index)
        sim.run()
        assert len(inboxes["c"]) == 10
        assert derived == []
        assert all(channel._rng is None for channel in net._channels.values())
