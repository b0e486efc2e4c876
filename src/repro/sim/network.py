"""Point-to-point network fabric for one DSM system.

A :class:`Network` owns a lazily-built full mesh of reliable FIFO channels
between registered nodes. Each node lives on a named *segment* (think: a
LAN). When a tracer is attached, every send is traced as a ``net.send``
event with its source and destination segments, which is how the §6
bottleneck-link experiment counts messages crossing the slow inter-LAN
link (the metrics registry and :class:`repro.obs.TrafficMeter` reduce
those events).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.sim import rng as rng_mod
from repro.sim.channel import DelayModel, FixedDelay, ReliableFifoChannel, schedule_deliveries
from repro.sim.core import Simulator

@dataclass
class _Node:
    deliver: Callable[[str, Any], None]
    segment: str


class Network:
    """A mesh of FIFO channels among named nodes, with traffic accounting."""

    def __init__(
        self,
        sim: Simulator,
        default_delay: DelayModel | float = 1.0,
        seed: int = 0,
        name: str = "net",
    ) -> None:
        self.sim = sim
        self._default_delay = (
            FixedDelay(default_delay) if isinstance(default_delay, (int, float)) else default_delay
        )
        self._seed = seed
        self.name = name
        self._nodes: dict[str, _Node] = {}
        self._channels: dict[tuple[str, str], ReliableFifoChannel] = {}
        #: Per source, its (destination, channel) pairs in node-registration
        #: order; built on the source's first broadcast.
        self._fanouts: dict[str, list[tuple[str, ReliableFifoChannel]]] = {}
        self._delays: dict[tuple[str, str], DelayModel] = {}
        self.messages_sent = 0

    def add_node(
        self,
        node_id: str,
        deliver: Callable[[str, Any], None],
        segment: str = "default",
    ) -> None:
        """Register a node. *deliver* is called as ``deliver(src, payload)``."""
        if node_id in self._nodes:
            raise ConfigurationError(f"duplicate node id {node_id!r} on network {self.name!r}")
        self._nodes[node_id] = _Node(deliver, segment)
        self._fanouts.clear()

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    @property
    def node_ids(self) -> list[str]:
        return list(self._nodes)

    def segment_of(self, node_id: str) -> str:
        return self._nodes[node_id].segment

    def set_delay(self, src: str, dst: str, delay: DelayModel | float) -> None:
        """Override the delay model for the src->dst direction.

        Must be called before the first message on that direction.
        """
        key = (src, dst)
        if key in self._channels:
            raise ConfigurationError(f"channel {src}->{dst} already in use")
        self._delays[key] = FixedDelay(delay) if isinstance(delay, (int, float)) else delay

    def send(self, src: str, dst: str, payload: Any) -> None:
        """Send *payload* from node *src* to node *dst* (FIFO per pair)."""
        channel = self._channels.get((src, dst)) or self._channel(src, dst)
        self.messages_sent += 1
        if self.sim.tracer is not None:
            self._trace_send(src, dst, payload)
        channel.send(payload)

    def broadcast(self, src: str, payload: Any) -> int:
        """Send *payload* to every other node; returns the message count.

        This models the propagation-based MCS protocols' update broadcast:
        x MCS-processes => x - 1 messages per write (§6). The sends go in
        node-registration order, as :meth:`send` would make them one by one,
        except that the channels only admit the payload here; the
        deliveries go to the kernel together, so a fan-out over links of
        one delay is a single delivery group.
        """
        fanout = self._fanouts.get(src)
        if fanout is None:
            fanout = self._fanouts[src] = [
                (dst, self._channels.get((src, dst)) or self._channel(src, dst))
                for dst in self._nodes
                if dst != src
            ]
        self.messages_sent += len(fanout)
        traced = self.sim.tracer is not None
        deliveries: list[tuple] = []
        for dst, channel in fanout:
            if traced:
                self._trace_send(src, dst, payload)
            channel.admit(payload, deliveries)
        schedule_deliveries(self.sim, deliveries)
        return len(fanout)

    def _trace_send(self, src: str, dst: str, payload: Any) -> None:
        self.sim.tracer.emit(
            self.sim.now,
            "net.send",
            src,
            network=self.name,
            dst=dst,
            src_segment=self._nodes[src].segment,
            dst_segment=self._nodes[dst].segment,
            payload=payload,
        )

    def _channel(self, src: str, dst: str) -> ReliableFifoChannel:
        """Build the src->dst channel on its first message; only then are
        the two endpoints checked, so cached sends pay for no lookup."""
        if src not in self._nodes:
            raise ConfigurationError(f"unknown sender {src!r}")
        if dst not in self._nodes:
            raise ConfigurationError(f"unknown destination {dst!r}")
        key = (src, dst)
        channel = ReliableFifoChannel(
            self.sim,
            deliver=functools.partial(self._nodes[dst].deliver, src),
            delay=self._delays.get(key, self._default_delay),
            rng=functools.partial(rng_mod.derive, self._seed, self.name, src, dst),
            name=f"{self.name}:{src}->{dst}",
        )
        self._channels[key] = channel
        return channel


__all__ = ["Network"]
