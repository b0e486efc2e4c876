"""Point-to-point network fabric for one DSM system.

A :class:`Network` owns a lazily-built full mesh of reliable FIFO channels
between registered nodes. Each node lives on a named *segment* (think: a
LAN). When a tracer is attached, every send is traced as a ``net.send``
event with its source and destination segments, which is how the §6
bottleneck-link experiment counts messages crossing the slow inter-LAN
link (:class:`repro.metrics.TrafficMeter` reduces those events).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.sim import rng as rng_mod
from repro.sim.channel import DelayModel, FixedDelay, ReliableFifoChannel
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
        if src not in self._nodes:
            raise ConfigurationError(f"unknown sender {src!r}")
        if dst not in self._nodes:
            raise ConfigurationError(f"unknown destination {dst!r}")
        channel = self._channel(src, dst)
        self.messages_sent += 1
        instruments = self.sim.instruments
        if instruments is not None:
            src_segment = self._nodes[src].segment
            dst_segment = self._nodes[dst].segment
            metrics = instruments.metrics
            if metrics is not None:
                metrics.counter("net_messages_total", network=self.name).inc()
                if src_segment != dst_segment:
                    metrics.counter("bottleneck_crossings_total", network=self.name).inc()
            if instruments.tracer is not None:
                instruments.tracer.emit(
                    self.sim.now,
                    "net.send",
                    src,
                    network=self.name,
                    dst=dst,
                    src_segment=src_segment,
                    dst_segment=dst_segment,
                    payload=payload,
                )
        channel.send(payload)

    def broadcast(self, src: str, payload: Any) -> int:
        """Send *payload* to every other node; returns the message count.

        This models the propagation-based MCS protocols' update broadcast:
        x MCS-processes => x - 1 messages per write (§6).
        """
        count = 0
        for node_id in self._nodes:
            if node_id != src:
                self.send(src, node_id, payload)
                count += 1
        return count

    def _channel(self, src: str, dst: str) -> ReliableFifoChannel:
        key = (src, dst)
        channel = self._channels.get(key)
        if channel is None:
            delay = self._delays.get(key, self._default_delay)
            node = self._nodes[dst]
            channel = ReliableFifoChannel(
                self.sim,
                deliver=lambda payload, _src=src, _node=node: _node.deliver(_src, payload),
                delay=delay,
                rng=functools.partial(rng_mod.derive, self._seed, self.name, src, dst),
                name=f"{self.name}:{src}->{dst}",
            )
            self._channels[key] = channel
        return channel


__all__ = ["Network"]
