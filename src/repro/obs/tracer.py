"""Structured event tracing with pluggable sinks.

A :class:`Tracer` turns the simulation's interesting moments — operations
completing, messages crossing channels, IS-processes propagating pairs,
retransmissions, crashes — into typed :class:`TraceEvent` records and
hands them to a :class:`TraceSink`. Four sinks ship in-tree:

* :class:`ListSink` — unbounded in-memory list (tests, small runs);
* :class:`RingBufferSink` — bounded in-memory ring (always-on tracing of
  long runs, keep the tail);
* :class:`JsonlSink` — one JSON object per line on disk, loadable with
  :func:`read_jsonl` and convertible to a Chrome ``trace_event`` file by
  :mod:`repro.obs.chrome`;
* :class:`TeeSink` — forwards each event to several sinks (how
  :func:`repro.obs.instruments.observe` adds a reducer beside a tracer
  that is already attached).

Determinism contract: every timestamp in a recorded event is *virtual*
(simulation) time — never wall-clock — and the event sequence is a pure
function of the run. Two runs with the same seed and call order produce
identical event streams, so traced runs stay bit-for-bit replayable
(pinned by ``tests/unit/test_obs_tracer.py``).

This module deliberately imports nothing from the simulation layers:
``repro.sim`` hooks *into* it, not the other way around, so there are no
layering cycles. Vector clocks are detected by duck-typing
(``processes()``/``get()``).
"""

from __future__ import annotations

import itertools
import json
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Optional, Union

#: Chrome-compatible phases a TraceEvent may carry: instant, span
#: begin/end, and complete (with a duration).
PHASES = ("i", "B", "E", "X")

_JSON_NATIVE = (str, int, float, bool, type(None))


def clock_entries(clock: Any) -> Optional[tuple[tuple[int, int], ...]]:
    """Canonicalise a vector clock into sorted ``(proc, count)`` entries.

    Accepts anything shaped like :class:`repro.sim.clock.VectorClock`
    (``processes()`` + ``get()``), an already-canonical tuple/list of
    pairs, or ``None``.
    """
    if clock is None:
        return None
    if hasattr(clock, "processes") and hasattr(clock, "get"):
        return tuple(sorted((proc, clock.get(proc)) for proc in clock.processes()))
    return tuple(sorted((int(proc), int(count)) for proc, count in clock))


@dataclass(frozen=True)
class TraceEvent:
    """One recorded moment of a run.

    Attributes:
        seq: tracer-local monotonic index (stable tie-break and identity).
        ts: *virtual* time of the event (sim time; never wall-clock).
        kind: typed label, e.g. ``"op"``, ``"msg.send"``,
            ``"is.post_update"``, ``"retransmit"``, ``"is.crash"``.
        component: the process/channel/link the event belongs to.
        system: owning DSM system, when known ("" otherwise).
        phase: ``"i"`` instant (default), ``"B"``/``"E"`` span
            begin/end, ``"X"`` complete-with-duration.
        dur: duration in virtual time units (``"X"`` phase only).
        args: sorted ``(key, value)`` payload pairs.
        clock: vector-clock annotation as sorted ``(proc, count)``
            entries — the causal position of the emitting replica.
    """

    seq: int
    ts: float
    kind: str
    component: str
    system: str = ""
    phase: str = "i"
    dur: Optional[float] = None
    args: tuple[tuple[str, Any], ...] = ()
    clock: Optional[tuple[tuple[int, int], ...]] = None

    def arg(self, key: str, default: Any = None) -> Any:
        for name, value in self.args:
            if name == key:
                return value
        return default

    def to_json(self) -> dict[str, Any]:
        blob: dict[str, Any] = {
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "component": self.component,
        }
        if self.system:
            blob["system"] = self.system
        if self.phase != "i":
            blob["phase"] = self.phase
        if self.dur is not None:
            blob["dur"] = self.dur
        if self.args:
            blob["args"] = {key: _encode_arg(value) for key, value in self.args}
        if self.clock is not None:
            blob["clock"] = [list(entry) for entry in self.clock]
        return blob

    @staticmethod
    def from_json(blob: dict[str, Any]) -> "TraceEvent":
        return TraceEvent(
            seq=blob["seq"],
            ts=blob["ts"],
            kind=blob["kind"],
            component=blob["component"],
            system=blob.get("system", ""),
            phase=blob.get("phase", "i"),
            dur=blob.get("dur"),
            args=tuple(sorted(blob.get("args", {}).items())),
            clock=(
                tuple((proc, count) for proc, count in blob["clock"])
                if "clock" in blob
                else None
            ),
        )


def _encode_arg(value: Any) -> Any:
    """JSON-safe rendering of an event argument (repr fallback)."""
    if isinstance(value, _JSON_NATIVE):
        return value
    return repr(value)


class TraceSink:
    """Receives every event a :class:`Tracer` emits."""

    def write(self, event: TraceEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources; writing after close is an error."""


class ListSink(TraceSink):
    """Unbounded in-memory sink (tests and short runs)."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def write(self, event: TraceEvent) -> None:
        self.events.append(event)


class RingBufferSink(TraceSink):
    """Bounded in-memory sink keeping the most recent *capacity* events."""

    def __init__(self, capacity: int = 65536) -> None:
        if capacity <= 0:
            raise ValueError(f"ring buffer capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.events: deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0

    def write(self, event: TraceEvent) -> None:
        if len(self.events) == self.capacity:
            self.dropped += 1
        self.events.append(event)


class JsonlSink(TraceSink):
    """Streams events to *path*, one JSON object per line."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle = self.path.open("w", encoding="utf-8")
        self.written = 0

    def write(self, event: TraceEvent) -> None:
        self._handle.write(json.dumps(event.to_json(), sort_keys=True))
        self._handle.write("\n")
        self.written += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


class TeeSink(TraceSink):
    """Forwards every event to each of *sinks*, in order."""

    def __init__(self, *sinks: TraceSink) -> None:
        self.sinks = list(sinks)

    def write(self, event: TraceEvent) -> None:
        for sink in self.sinks:
            sink.write(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


def read_jsonl(path: Union[str, Path]) -> list[TraceEvent]:
    """Load the events a :class:`JsonlSink` wrote."""
    events = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(TraceEvent.from_json(json.loads(line)))
    return events


class Tracer:
    """Process-local event recorder; see the module docstring.

    The tracer itself is clock-less: callers pass the (virtual) timestamp
    of each event, which is what keeps recorded streams deterministic.
    :meth:`repro.sim.core.Simulator.trace` is the usual entry point — it
    supplies ``sim.now`` and no-ops when no tracer is installed.
    """

    def __init__(self, sink: Optional[TraceSink] = None) -> None:
        self.sink = sink if sink is not None else RingBufferSink()
        self._seq = itertools.count()
        self._count = 0

    @property
    def count(self) -> int:
        """Events emitted so far."""
        return self._count

    def emit(
        self,
        ts: float,
        kind: str,
        component: str,
        *,
        system: str = "",
        phase: str = "i",
        dur: Optional[float] = None,
        clock: Any = None,
        **args: Any,
    ) -> TraceEvent:
        """Record one event at virtual time *ts* and return it."""
        if phase not in PHASES:
            raise ValueError(f"unknown trace phase {phase!r}; expected one of {PHASES}")
        event = TraceEvent(
            seq=next(self._seq),
            ts=ts,
            kind=kind,
            component=component,
            system=system,
            phase=phase,
            dur=dur,
            args=tuple(sorted(args.items())),
            clock=clock_entries(clock),
        )
        self.sink.write(event)
        self._count += 1
        return event

    def close(self) -> None:
        self.sink.close()


@dataclass
class TraceSummary:
    """Aggregate view of an event stream (``repro trace --summarize``)."""

    events: int = 0
    first_ts: float = 0.0
    last_ts: float = 0.0
    by_kind: Counter = field(default_factory=Counter)
    by_component: Counter = field(default_factory=Counter)
    by_system: Counter = field(default_factory=Counter)

    def render(self) -> str:
        lines = [
            f"{self.events} events over virtual time "
            f"[{self.first_ts:.3f}, {self.last_ts:.3f}]",
            "by kind:",
        ]
        for kind, count in self.by_kind.most_common():
            lines.append(f"  {kind:<24} {count}")
        lines.append("by component (top 10):")
        for component, count in self.by_component.most_common(10):
            lines.append(f"  {component:<40} {count}")
        if self.by_system:
            lines.append("by system:")
            for system, count in sorted(self.by_system.items()):
                lines.append(f"  {system:<24} {count}")
        return "\n".join(lines)


def summarize(events: Iterable[TraceEvent]) -> TraceSummary:
    """Count an event stream by kind, component, and system."""
    summary = TraceSummary()
    for event in events:
        if summary.events == 0:
            summary.first_ts = event.ts
        summary.first_ts = min(summary.first_ts, event.ts)
        summary.last_ts = max(summary.last_ts, event.ts)
        summary.events += 1
        summary.by_kind[event.kind] += 1
        summary.by_component[event.component] += 1
        if event.system:
            summary.by_system[event.system] += 1
    return summary


__all__ = [
    "PHASES",
    "TraceEvent",
    "TraceSink",
    "ListSink",
    "RingBufferSink",
    "JsonlSink",
    "TeeSink",
    "Tracer",
    "TraceSummary",
    "clock_entries",
    "read_jsonl",
    "summarize",
]
