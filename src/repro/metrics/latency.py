"""Write-visibility latency measurement (§6's l, and 3l + 2d).

The paper defines latency as the time until a written value is visible at
every other process. :class:`VisibilityTracker` reduces the
``replica.apply`` trace events of the systems it tracks and records, per
written value, when each replica applied it. The *visibility latency* of
a write is the span from its first application (at the writer,
effectively the issue time) to its last application anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.memory.system import DSMSystem
from repro.obs.instruments import observe
from repro.obs.tracer import TraceEvent, TraceSink


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
    """Tracks when every replica applies every written value."""

    def __init__(self) -> None:
        self._records: dict[tuple[str, object], WriteVisibility] = {}
        self._systems: list[DSMSystem] = []
        self._names: set[str] = set()

    def attach_systems(self, systems: Iterable[DSMSystem]) -> "VisibilityTracker":
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


__all__ = ["VisibilityTracker", "WriteVisibility"]
