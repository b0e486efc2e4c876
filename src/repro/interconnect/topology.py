"""Interconnecting many systems: tree topologies (§5).

Corollary 1: any number of propagation-based causal systems can be
interconnected pairwise, *avoiding cycles*, and the result is causal. The
helpers here build the standard shapes (star, chain, balanced tree, or an
explicit edge list) and enforce acyclicity — a cyclic interconnection
would re-propagate writes forever and is rejected up front.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.errors import TopologyError
from repro.interconnect.bridge import Bridge, connect
from repro.memory.system import DSMSystem
from repro.sim.channel import AvailabilitySchedule, DelayModel


def star_edges(count: int, hub: int = 0) -> list[tuple[int, int]]:
    """Edges of a star with the given *hub* index (the §6 latency shape)."""
    if not 0 <= hub < count:
        raise TopologyError(f"hub {hub} out of range for {count} systems")
    return [(hub, leaf) for leaf in range(count) if leaf != hub]

def chain_edges(count: int) -> list[tuple[int, int]]:
    """Edges of a path S0 - S1 - ... - S(count-1)."""
    return [(index, index + 1) for index in range(count - 1)]


def validate_tree(count: int, edges: Sequence[tuple[int, int]]) -> None:
    """Check that *edges* form a spanning tree over *count* systems."""
    if count == 0:
        raise TopologyError("no systems to interconnect")
    if len(edges) != count - 1:
        raise TopologyError(
            f"{count} systems need exactly {count - 1} interconnection links, got {len(edges)}"
        )
    parent = list(range(count))

    def find(node: int) -> int:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for a, b in edges:
        if not (0 <= a < count and 0 <= b < count):
            raise TopologyError(f"edge ({a}, {b}) references an unknown system")
        if a == b:
            raise TopologyError(f"self-loop on system {a}")
        root_a, root_b = find(a), find(b)
        if root_a == root_b:
            raise TopologyError(f"edge ({a}, {b}) creates a cycle")
        parent[root_a] = root_b
    roots = {find(node) for node in range(count)}
    if len(roots) != 1:
        raise TopologyError("interconnection does not connect all systems")


@dataclass
class Interconnection:
    """A set of systems joined into one global causal system S^T."""

    systems: list[DSMSystem]
    bridges: list[Bridge] = field(default_factory=list)

    @property
    def total_app_mcs(self) -> int:
        """The paper's n: application MCS-processes across all systems."""
        return sum(len(system.app_processes) for system in self.systems)

    @property
    def total_mcs(self) -> int:
        """All MCS-processes, IS-attached ones included."""
        return sum(system.mcs_count for system in self.systems)

    @property
    def inter_system_messages(self) -> int:
        """IS pairs that crossed any interconnection link."""
        return sum(bridge.messages_crossing for bridge in self.bridges)

    @property
    def intra_system_messages(self) -> int:
        return sum(system.network.messages_sent for system in self.systems)

    def check_quiescent(self) -> None:
        for system in self.systems:
            system.check_quiescent()


def interconnect(
    systems: Sequence[DSMSystem],
    edges: Optional[Sequence[tuple[int, int]]] = None,
    topology: str = "star",
    delay: DelayModel | float = 1.0,
    availability: Optional[AvailabilitySchedule] = None,
    shared: bool = True,
    use_pre_update: Optional[bool] = None,
    read_before_send: bool = True,
    coalesce_queued: bool = False,
    seed: int = 0,
) -> Interconnection:
    """Interconnect *systems* into one causal system (Corollary 1).

    Either pass explicit *edges* (validated to be a tree) or pick a
    *topology*: ``"star"`` (hub = systems[0]) or ``"chain"``.
    """
    systems = list(systems)
    if edges is None:
        if topology == "star":
            edges = star_edges(len(systems))
        elif topology == "chain":
            edges = chain_edges(len(systems))
        else:
            raise TopologyError(f"unknown topology {topology!r} (use 'star' or 'chain')")
    if len(systems) == 1:
        return Interconnection(systems=systems)
    validate_tree(len(systems), edges)
    result = Interconnection(systems=systems)
    for index, (a, b) in enumerate(edges):
        bridge = connect(
            systems[a],
            systems[b],
            delay=delay,
            availability=availability,
            shared=shared,
            use_pre_update=use_pre_update,
            read_before_send=read_before_send,
            coalesce_queued=coalesce_queued,
            seed=seed + index,
        )
        result.bridges.append(bridge)
    return result


__all__ = [
    "Interconnection",
    "interconnect",
    "star_edges",
    "chain_edges",
    "validate_tree",
]
