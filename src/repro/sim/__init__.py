"""Discrete-event simulation substrate.

This package is self-contained (no dependency on the DSM layers) and
provides: the event-loop kernel (:mod:`repro.sim.core`), logical clocks
(:mod:`repro.sim.clock`), reliable FIFO channels with delay, availability
and fault models (:mod:`repro.sim.channel`), a per-system network fabric
with traffic accounting (:mod:`repro.sim.network`), and seeded RNG
derivation (:mod:`repro.sim.rng`).
"""

from repro.sim.channel import (
    AlwaysUp,
    AvailabilitySchedule,
    ExponentialDelay,
    FixedDelay,
    PeriodicAvailability,
    ReliableFifoChannel,
    UniformDelay,
    UpWindows,
)
from repro.sim.clock import LamportClock, LamportTimestamp, VectorClock
from repro.sim.core import (
    EnabledEvent,
    EventHandle,
    FifoPolicy,
    SchedulerPolicy,
    Simulator,
)
from repro.sim.network import Network
from repro.sim.process import SimProcess
from repro.sim.rng import derive

__all__ = [
    "Simulator",
    "EventHandle",
    "EnabledEvent",
    "SchedulerPolicy",
    "FifoPolicy",
    "VectorClock",
    "LamportClock",
    "LamportTimestamp",
    "ReliableFifoChannel",
    "FixedDelay",
    "UniformDelay",
    "ExponentialDelay",
    "AvailabilitySchedule",
    "AlwaysUp",
    "UpWindows",
    "PeriodicAvailability",
    "Network",
    "SimProcess",
    "derive",
]
