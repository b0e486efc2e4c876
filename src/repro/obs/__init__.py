"""Observability: structured tracing, metrics, the §6 measurements,
profiling, the perf suite.

See ``docs/observability.md`` for the user guide. The layer is strictly
downstream of the simulation — modules here import nothing from
``repro.sim`` (or any other repro package outside ``repro.obs``), so the
kernel can hook into it without cycles — and strictly passive: recording
an event or a metric never schedules work, consumes randomness, or puts
wall-clock time into a trace, which is what keeps instrumented runs
bit-for-bit identical to uninstrumented ones.
"""

from repro.obs.instruments import Instruments, combine, observe
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.reducers import (
    MESSAGE_OVERHEAD_BYTES,
    TrafficMeter,
    VisibilityTracker,
    WriteVisibility,
    estimate_bytes,
)
from repro.obs.tracer import (
    JsonlSink,
    ListSink,
    RingBufferSink,
    TeeSink,
    TraceEvent,
    Tracer,
    TraceSink,
    read_jsonl,
    summarize,
)

__all__ = [
    "MESSAGE_OVERHEAD_BYTES",
    "Counter",
    "Gauge",
    "Histogram",
    "Instruments",
    "JsonlSink",
    "ListSink",
    "MetricsRegistry",
    "RingBufferSink",
    "TeeSink",
    "TraceEvent",
    "TraceSink",
    "Tracer",
    "TrafficMeter",
    "VisibilityTracker",
    "WriteVisibility",
    "combine",
    "estimate_bytes",
    "observe",
    "read_jsonl",
    "summarize",
]
