"""The :class:`Instruments` bundle: one handle for a run's observability.

Nearly every component in the stack holds a :class:`repro.sim.core.Simulator`
reference, so instead of threading ``tracer=``/``metrics=`` through every
constructor, a run attaches a single ``Instruments`` bundle to its
simulator (``Simulator(instruments=...)`` or the ``tracer=``/``metrics=``
keyword arguments on the high-level entry points
:func:`repro.workloads.scenarios.build_interconnected`,
:func:`repro.interconnect.bridge.connect`,
:func:`repro.resilience.campaign.run_campaign`, and
:func:`repro.explore.engine.run_with_trace`).

Hook sites guard on ``sim.instruments is None`` (one attribute load and
an identity test), which is the zero-overhead-when-disabled contract: an
uninstrumented run executes no observability code beyond those guards,
and an instrumented run records events/metrics without scheduling
anything or consuming randomness — so enabling instrumentation cannot
change a seeded run's history (pinned by
``tests/integration/test_obs_overhead.py``).

The trace stream is the only observation hook: a measurement that wants
to see a run (:class:`repro.metrics.TrafficMeter`,
:class:`repro.metrics.VisibilityTracker`) is a :class:`TraceSink` that
reduces events as they are emitted, attached with :func:`observe`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import TeeSink, Tracer, TraceSink


class Instruments:
    """A tracer and/or metrics registry travelling together.

    Either half may be ``None``; :func:`combine` builds a bundle only
    when at least one half is present, so callers can write
    ``sim.instruments = combine(tracer, metrics)`` and keep the
    ``None``-means-disabled fast path.
    """

    __slots__ = ("tracer", "metrics")

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.tracer = tracer
        self.metrics = metrics

    def __repr__(self) -> str:
        parts = []
        if self.tracer is not None:
            parts.append(f"tracer={self.tracer.count} events")
        if self.metrics is not None:
            parts.append(f"metrics={len(self.metrics)} instruments")
        return f"Instruments({', '.join(parts) or 'empty'})"


def combine(
    tracer: Optional[Tracer],
    metrics: Optional[MetricsRegistry],
    existing: Optional[Instruments] = None,
) -> Optional[Instruments]:
    """Merge new tracer/metrics with an existing bundle, if any.

    Returns ``None`` when every input is ``None``, preserving the
    disabled fast path. New halves win over *existing* ones.
    """
    tracer = tracer if tracer is not None else (existing.tracer if existing else None)
    metrics = metrics if metrics is not None else (existing.metrics if existing else None)
    if tracer is None and metrics is None:
        return None
    return Instruments(tracer, metrics)


def observe(sim: Any, sink: TraceSink) -> TraceSink:
    """Feed *sink* every trace event *sim* emits from now on.

    Installs a tracer on *sink* when *sim* has none; otherwise tees *sink*
    beside the attached tracer's sink, so both see every event. Observing
    with the same sink twice is a no-op. Returns *sink*.
    """
    instruments = sim.instruments
    tracer = instruments.tracer if instruments is not None else None
    if tracer is None:
        sim.instruments = combine(Tracer(sink), None, instruments)
        return sink
    sinks = tracer.sink.sinks if isinstance(tracer.sink, TeeSink) else [tracer.sink]
    if all(existing is not sink for existing in sinks):
        tracer.sink = TeeSink(*sinks, sink)
    return sink


__all__ = ["Instruments", "combine", "observe"]
