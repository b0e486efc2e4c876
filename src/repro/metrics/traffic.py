"""Traffic accounting: message counts by network, kind, and segment.

The §6 model talks about three quantities, all measured here:

* messages generated per write inside a system (the MCS protocol's
  broadcast fan-out),
* messages crossing a *bottleneck* (inter-segment) link per write,
* messages crossing interconnection links (exactly one per write per
  link in the paper's scheme).

:class:`TrafficMeter` reduces the ``net.send`` trace events that
:meth:`repro.sim.network.Network.send` emits.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Iterable

from repro.obs.instruments import observe
from repro.obs.tracer import TraceEvent, TraceSink
from repro.sim.clock import LamportTimestamp, VectorClock
from repro.sim.network import Network

#: Fixed per-message overhead charged by :func:`estimate_bytes` (headers,
#: framing) — a modelling constant, not a protocol property.
MESSAGE_OVERHEAD_BYTES = 16


def estimate_bytes(payload: Any) -> int:
    """Structural size estimate of a protocol message, in bytes.

    A deliberate simplification (8 bytes per scalar, string length for
    text, 16 bytes per vector-clock entry) — precise enough to compare
    *classes* of messages: a timestamp-only write notice versus a
    full-value update, an invalidation versus a fetch reply.
    """
    if payload is None:
        return 0
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, bytes):
        return len(payload)
    if isinstance(payload, VectorClock):
        return 16 * sum(1 for _ in payload.processes())
    if isinstance(payload, LamportTimestamp):
        return 16
    if isinstance(payload, (tuple, list, set, frozenset)):
        return sum(estimate_bytes(item) for item in payload)
    if isinstance(payload, dict):
        return sum(
            estimate_bytes(key) + estimate_bytes(value) for key, value in payload.items()
        )
    if is_dataclass(payload):
        return sum(
            estimate_bytes(getattr(payload, spec.name)) for spec in fields(payload)
        )
    return 8  # unknown scalar


@dataclass
class TrafficMeter(TraceSink):
    """Tallies the sends of the networks it is attached to.

    A trace reducer: it counts the ``net.send`` events whose ``network``
    is one it attached to, so a meter on one network of a shared
    simulator sees only that network's traffic.
    """

    total: int = 0
    total_bytes: int = 0
    by_network: Counter = field(default_factory=Counter)
    by_kind: Counter = field(default_factory=Counter)
    by_kind_bytes: Counter = field(default_factory=Counter)
    by_segment_pair: Counter = field(default_factory=Counter)
    cross_segment: int = 0
    cross_segment_bytes: int = 0
    networks: set[str] = field(default_factory=set, repr=False)

    def attach(self, *networks: Network) -> "TrafficMeter":
        for network in networks:
            self.networks.add(network.name)
            observe(network.sim, self)
        return self

    def write(self, event: TraceEvent) -> None:
        if event.kind != "net.send":
            return
        args = dict(event.args)
        network = args["network"]
        if network not in self.networks:
            return
        payload = args["payload"]
        kind = type(payload).__name__
        size = MESSAGE_OVERHEAD_BYTES + estimate_bytes(payload)
        self.total += 1
        self.total_bytes += size
        self.by_network[network] += 1
        self.by_kind[kind] += 1
        self.by_kind_bytes[kind] += size
        self.by_segment_pair[(args["src_segment"], args["dst_segment"])] += 1
        if args["src_segment"] != args["dst_segment"]:
            self.cross_segment += 1
            self.cross_segment_bytes += size

    def crossings(self, segment_a: str, segment_b: str) -> int:
        """Messages that crossed between the two named segments (both ways)."""
        return self.by_segment_pair[(segment_a, segment_b)] + self.by_segment_pair[
            (segment_b, segment_a)
        ]

    def per_write(self, write_count: int) -> float:
        """Average messages per write operation."""
        if write_count == 0:
            return 0.0
        return self.total / write_count


def messages_per_write(networks: Iterable[Network], write_count: int) -> float:
    """Total intra-system messages across *networks* divided by writes."""
    total = sum(network.messages_sent for network in networks)
    if write_count == 0:
        return 0.0
    return total / write_count


__all__ = ["TrafficMeter", "messages_per_write", "estimate_bytes", "MESSAGE_OVERHEAD_BYTES"]
