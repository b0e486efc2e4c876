"""Metrics registry: labelled counters, gauges, and histograms.

The registry is the quantitative half of the observability layer (the
:mod:`tracer <repro.obs.tracer>` is the qualitative half). Its hook
counter families — messages per channel and network, bottleneck-link
crossings, IS pairs, operations, retransmits, crashes, WAL appends — are
a reduction of the trace stream: the registry is a :class:`TraceSink`,
and :data:`EVENT_COUNTERS` maps each counted event kind to its counter
and labels. ``python -m repro stats`` renders a snapshot so the §6
message-count model can be checked against a live run. Three families
are written directly: ``sim_events_total`` (the kernel's own count; it
emits no per-event trace), the explorer's ``explore_*`` summaries, and
the ``profile_*`` wall-clock histograms.

Design notes:

* Instruments are identified by ``(name, sorted label items)``. Looking
  up an instrument with the same name but a different label set returns a
  distinct child, Prometheus-style: ``registry.counter(
  "channel_messages_total", channel="net:p0->p1")``.
* Counters and gauges are exact; histograms store bucketed counts plus
  exact sum/min/max (enough for mean and tail summaries without keeping
  every sample).
* Everything is plain arithmetic on plain values — recording a metric
  never touches the simulator, the RNG, or wall-clock, so metrics cannot
  perturb a deterministic run. (Wall-clock *may* appear as histogram
  samples recorded by the profiling hooks, but only as data.)
"""

from __future__ import annotations

import bisect
import json
from typing import Any, Iterator, Mapping, Optional, Union

from repro.obs.tracer import TraceEvent, TraceSink

Labels = tuple[tuple[str, str], ...]

#: Default histogram buckets. Chosen to cover both "seconds of wall time"
#: (profiling) and "number of graph nodes" (size observations) tolerably;
#: pass explicit buckets when the default spread is wrong for a metric.
DEFAULT_BUCKETS = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    50.0,
    100.0,
    500.0,
    1000.0,
    5000.0,
)


def _labels(labels: Mapping[str, Any]) -> Labels:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def _format_labels(labels: Labels) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self.value += amount


class Gauge:
    """Point-in-time value that may go up or down."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Bucketed distribution with exact count/sum/min/max."""

    __slots__ = ("name", "labels", "buckets", "bucket_counts", "count", "sum", "min", "max")

    def __init__(self, name: str, labels: Labels, buckets: tuple[float, ...]) -> None:
        if list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name} buckets must be sorted: {buckets}")
        self.name = name
        self.labels = labels
        self.buckets = buckets
        # One slot per bucket upper bound plus the +Inf overflow slot.
        self.bucket_counts = [0] * (len(buckets) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None


Instrument = Union[Counter, Gauge, Histogram]


def _crosses_segments(event: TraceEvent) -> bool:
    return event.arg("src_segment") != event.arg("dst_segment")


#: The hook counter families as a reduction of the trace stream. A row
#: reads ``(event kind, counter, labels, when)``: each label's value is
#: the named event argument (``component`` and ``system`` name those
#: event fields), and a row with a *when* predicate counts only the
#: events it accepts.
EVENT_COUNTERS = (
    ("msg.send", "channel_messages_total", {"channel": "channel"}, None),
    ("msg.drop", "channel_frames_dropped_total", {"channel": "channel"}, None),
    ("net.send", "net_messages_total", {"network": "network"}, None),
    ("net.send", "bottleneck_crossings_total", {"network": "network"}, _crosses_segments),
    ("mcs.built", "mcs_processes_built_total", {"protocol": "protocol"}, None),
    ("is.pair_send", "is_pairs_sent_total", {"link": "link"}, None),
    ("is.pair_recv", "is_pairs_received_total", {"link": "link"}, None),
    ("op", "ops_completed_total", {"system": "system", "kind": "op"}, None),
    ("bridge.connect", "bridges_total", {}, None),
    ("retransmit", "retransmits_total", {"link": "component"}, None),
    ("is.crash", "is_crashes_total", {"process": "component"}, None),
    ("is.recover", "is_recoveries_total", {"process": "component"}, None),
    ("wal.append", "wal_appends_total", {"wal": "wal"}, None),
    ("wal.append", "wal_records_total", {"kind": "record"}, None),
)

_ROWS_BY_KIND = {
    kind: [row[1:] for row in EVENT_COUNTERS if row[0] == kind]
    for kind, *_ in EVENT_COUNTERS
}


def _event_field(event: TraceEvent, source: str) -> Any:
    if source == "component":
        return event.component
    if source == "system":
        return event.system
    return event.arg(source)


class MetricsRegistry(TraceSink):
    """Home for every instrument of one run.

    Instruments are created on first use and shared on every later lookup
    with the same name + labels; a name may not be reused across
    instrument types. As a trace sink the registry counts the events of
    :data:`EVENT_COUNTERS`; :func:`repro.obs.instruments.combine` tees it
    into a run's tracer.
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, Labels], Instrument] = {}
        self._types: dict[str, type] = {}

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, name, _labels(labels))

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, name, _labels(labels))

    def histogram(
        self,
        name: str,
        *,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: Any,
    ) -> Histogram:
        key = (name, _labels(labels))
        self._check_type(name, Histogram)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = Histogram(name, key[1], buckets)
            self._instruments[key] = instrument
        return instrument  # type: ignore[return-value]

    def _get(self, cls: type, name: str, labels: Labels) -> Any:
        key = (name, labels)
        self._check_type(name, cls)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, labels)
            self._instruments[key] = instrument
        return instrument

    def write(self, event: TraceEvent) -> None:
        for name, sources, when in _ROWS_BY_KIND.get(event.kind, ()):
            if when is None or when(event):
                labels = {label: _event_field(event, field) for label, field in sources.items()}
                self.counter(name, **labels).inc()

    def _check_type(self, name: str, cls: type) -> None:
        existing = self._types.get(name)
        if existing is None:
            self._types[name] = cls
        elif existing is not cls:
            raise TypeError(
                f"metric {name!r} already registered as {existing.__name__}, "
                f"cannot re-register as {cls.__name__}"
            )

    def __iter__(self) -> Iterator[Instrument]:
        for key in sorted(self._instruments):
            yield self._instruments[key]

    def __len__(self) -> int:
        return len(self._instruments)

    # -- aggregation ----------------------------------------------------

    def total(self, name: str) -> float:
        """Sum of a counter/gauge family's values across all label sets."""
        return sum(
            instrument.value
            for (iname, _), instrument in self._instruments.items()
            if iname == name and isinstance(instrument, (Counter, Gauge))
        )

    def snapshot(self) -> dict[str, Any]:
        """A plain-data view of every instrument (stable ordering)."""
        out: dict[str, Any] = {}
        for instrument in self:
            key = instrument.name + _format_labels(instrument.labels)
            if isinstance(instrument, Histogram):
                out[key] = {
                    "count": instrument.count,
                    "sum": instrument.sum,
                    "min": instrument.min,
                    "max": instrument.max,
                    "mean": instrument.mean,
                }
            else:
                out[key] = instrument.value
        return out

    def render(self) -> str:
        """Text dump, one instrument per line (Prometheus-flavoured)."""
        lines = []
        for instrument in self:
            key = instrument.name + _format_labels(instrument.labels)
            if isinstance(instrument, Histogram):
                mean = f"{instrument.mean:.6g}" if instrument.count else "n/a"
                lines.append(
                    f"{key} count={instrument.count} sum={instrument.sum:.6g} "
                    f"min={instrument.min if instrument.min is not None else 'n/a'} "
                    f"max={instrument.max if instrument.max is not None else 'n/a'} "
                    f"mean={mean}"
                )
            else:
                value = instrument.value
                rendered = str(int(value)) if value == int(value) else f"{value:.6g}"
                lines.append(f"{key} {rendered}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)


__all__ = [
    "DEFAULT_BUCKETS",
    "EVENT_COUNTERS",
    "Counter",
    "Gauge",
    "Histogram",
    "Instrument",
    "MetricsRegistry",
]
