"""Analytical performance model (§6) and comparison helpers."""

from repro.analysis.compare import Comparison
from repro.analysis.whatif import (
    LinkLoad,
    link_load,
    sustainable_write_rate,
    total_message_overhead,
    worth_interconnecting,
)
from repro.analysis.model import (
    bottleneck_crossings_flat,
    bottleneck_crossings_interconnected,
    chain_worst_latency,
    flat_latency,
    flat_messages_per_write,
    interconnected_messages_per_write,
    star_worst_latency,
)

__all__ = [
    "Comparison",
    "flat_messages_per_write",
    "interconnected_messages_per_write",
    "bottleneck_crossings_flat",
    "bottleneck_crossings_interconnected",
    "flat_latency",
    "star_worst_latency",
    "chain_worst_latency",
    "LinkLoad",
    "link_load",
    "sustainable_write_rate",
    "total_message_overhead",
    "worth_interconnecting",
]
