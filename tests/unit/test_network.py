"""Unit tests for the per-system network fabric."""

import pytest

from repro.errors import ConfigurationError
from repro.sim import rng as rng_mod
from repro.sim.channel import ReliableFifoChannel, UniformDelay
from repro.sim.core import Simulator
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


class TestTrafficListeners:
    def test_listener_sees_segments(self):
        sim, net, _ = make_net(["a", "b"], segments=["lan0", "lan1"])
        records = []
        net.subscribe(records.append)
        net.send("a", "b", "payload")
        assert len(records) == 1
        record = records[0]
        assert record.src_segment == "lan0"
        assert record.dst_segment == "lan1"
        assert record.crosses_segments
        assert record.kind == "str"

    def test_same_segment_does_not_cross(self):
        sim, net, _ = make_net(["a", "b"], segments=["lan0", "lan0"])
        records = []
        net.subscribe(records.append)
        net.send("a", "b", "payload")
        assert not records[0].crosses_segments


class TestObservedSends:
    """A send builds its record only when something observes it; every
    observer must still see every send, and the unobserved path must
    deliver the same traffic."""

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

        registry = MetricsRegistry()
        sim = Simulator(instruments=combine(None, registry if count else None))
        net = Network(sim, name="n")
        for node, segment in (("a", "lan0"), ("b", "lan0"), ("c", "lan1")):
            net.add_node(node, lambda src, payload: None, segment)
        records = []
        if listen:
            net.subscribe(records.append)
        self.run_traffic(net, sim)
        if listen:
            assert [(r.src, r.dst, r.payload) for r in records] == [
                ("a", "b", "u1"), ("a", "c", "u1"), ("b", "c", "v"), ("c", "a", "w"),
                ("c", "a", "u2"), ("c", "b", "u2"),
            ]
        expected_sends, expected_crossings = (6, 5) if count else (0, 0)
        assert registry.total("net_messages_total") == expected_sends
        # a->c, b->c, c->a twice and c->b cross between lan0 and lan1.
        assert registry.total("bottleneck_crossings_total") == expected_crossings
        assert net.messages_sent == 6

    def test_unobserved_sends_deliver_the_same_traffic(self):
        observed_sim, observed, observed_inboxes = make_net(["a", "b", "c"])
        observed.subscribe(lambda record: None)
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
