"""The §6 measurements as trace reducers: traffic and write visibility.

The §6 model talks about three quantities:

* messages generated per write inside a system (the MCS protocol's
  broadcast fan-out),
* messages crossing a *bottleneck* (inter-segment) link per write,
* messages crossing interconnection links (exactly one per write per
  link in the paper's scheme),

and defines latency as the time until a written value is visible at
every other process (its ``l``, and ``3l + 2d`` across a bridge).

:class:`TrafficMeter` reduces the ``net.send`` events that
:meth:`repro.sim.network.Network.send` emits; :class:`VisibilityTracker`
reduces ``replica.apply``. Both are :class:`TraceSink` objects attached
with :func:`repro.obs.instruments.observe`, and must be attached before
the run. Like the rest of :mod:`repro.obs` they import nothing from the
simulation: networks and systems are read through ``.name``, ``.sim``
and ``.mcs_processes``, and a vector clock is recognised by its
``processes()`` method.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Iterable

from repro.obs.instruments import observe
from repro.obs.tracer import TraceEvent, TraceSink

#: Fixed per-message overhead charged by :func:`estimate_bytes` (headers,
#: framing) — a modelling constant, not a protocol property.
MESSAGE_OVERHEAD_BYTES = 16


def estimate_bytes(payload: Any) -> int:
    """Structural size estimate of a protocol message, in bytes.

    A deliberate simplification (8 bytes per scalar, string length for
    text, 16 bytes per vector-clock entry, a Lamport timestamp's two
    scalars) — precise enough to compare *classes* of messages: a
    timestamp-only write notice versus a full-value update, an
    invalidation versus a fetch reply.
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
    if hasattr(payload, "processes") and hasattr(payload, "get"):
        return 16 * sum(1 for _ in payload.processes())
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

    def attach(self, *networks: Any) -> "TrafficMeter":
        """Count the sends of *networks* (anything with ``.name`` and ``.sim``)."""
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


@dataclass
class WriteVisibility:
    """Per-value application times across replicas."""

    var: str
    value: object
    first_applied: float
    applied_at: dict[str, float] = field(default_factory=dict)

    @property
    def last_applied(self) -> float:
        return max(self.applied_at.values())

    @property
    def latency(self) -> float:
        """First-to-last application span (the worst-case visibility lag)."""
        return self.last_applied - self.first_applied

    def replica_count(self) -> int:
        return len(self.applied_at)


class VisibilityTracker(TraceSink):
    """Tracks when every replica applies every written value.

    The *visibility latency* of a write is the span from its first
    application (at the writer, effectively the issue time) to its last
    application anywhere.
    """

    def __init__(self) -> None:
        self._records: dict[tuple[str, object], WriteVisibility] = {}
        self._systems: list[Any] = []
        self._names: set[str] = set()

    def attach_systems(self, systems: Iterable[Any]) -> "VisibilityTracker":
        """Track *systems*: anything with ``.name``, ``.sim`` and
        ``.mcs_processes``."""
        for system in systems:
            self._systems.append(system)
            self._names.add(system.name)
            observe(system.sim, self)
        return self

    def write(self, event: TraceEvent) -> None:
        if event.kind != "replica.apply" or event.system not in self._names:
            return
        key = (event.arg("var"), event.arg("value"))
        record = self._records.get(key)
        if record is None:
            record = WriteVisibility(var=key[0], value=key[1], first_applied=event.ts)
            self._records[key] = record
        record.applied_at.setdefault(event.component, event.ts)

    @property
    def records(self) -> list[WriteVisibility]:
        return list(self._records.values())

    def fully_visible(self) -> list[WriteVisibility]:
        """Writes applied at every replica of the tracked systems."""
        expected = sum(len(system.mcs_processes) for system in self._systems)
        return [
            record
            for record in self._records.values()
            if record.replica_count() == expected
        ]

    def worst_latency(self) -> float:
        """Max visibility latency among fully visible writes."""
        visible = self.fully_visible()
        if not visible:
            return 0.0
        return max(record.latency for record in visible)

    def mean_latency(self) -> float:
        visible = self.fully_visible()
        if not visible:
            return 0.0
        return sum(record.latency for record in visible) / len(visible)


__all__ = [
    "MESSAGE_OVERHEAD_BYTES",
    "TrafficMeter",
    "VisibilityTracker",
    "WriteVisibility",
    "estimate_bytes",
]
