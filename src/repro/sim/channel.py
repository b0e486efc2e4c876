"""Reliable FIFO channels with delay models and availability schedules.

The IS-protocols of the paper only require "a bidirectional reliable FIFO
channel connecting one process from each system" (§1.1), and explicitly
tolerate the channel being unavailable for periods of time ("dial-up"
operation): updates queue up and are propagated later. Both properties are
modelled here:

* FIFO + reliability: every message sent is delivered, and delivery order
  equals send order regardless of sampled per-message delays.
* Availability: an :class:`AvailabilitySchedule` says when the link is up;
  a message sent while the link is down starts transmission at the next
  up-time.

The same channel, given a :class:`FaultPlan`, breaks those assumptions on
purpose: it drops, duplicates and reorders frames, and loses whatever is
sent during a partition window (unlike the queue-and-drain semantics of an
availability schedule). The resilience layer rebuilds the §1.1 contract on
top of such a wire; experiment X7 shows what breaks without it. All fault
decisions flow through the channel's seeded rng, so a failing schedule
replays exactly.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ChannelError
from repro.sim import rng as rng_mod
from repro.sim.core import Simulator


class DelayModel:
    """Samples a per-message transmission delay."""

    def sample(self, rng: random.Random) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class FixedDelay(DelayModel):
    """Every message takes exactly *delay* time units."""

    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ChannelError(f"negative delay {self.delay}")

    def sample(self, rng: random.Random) -> float:
        return self.delay


@dataclass(frozen=True)
class UniformDelay(DelayModel):
    """Delay drawn uniformly from [low, high]."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise ChannelError(f"bad uniform delay bounds [{self.low}, {self.high}]")

    def sample(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)


@dataclass(frozen=True)
class ExponentialDelay(DelayModel):
    """Exponentially distributed delay with the given mean, plus a floor."""

    mean: float
    floor: float = 0.0

    def __post_init__(self) -> None:
        if self.mean <= 0 or self.floor < 0:
            raise ChannelError("exponential delay needs mean > 0 and floor >= 0")

    def sample(self, rng: random.Random) -> float:
        return self.floor + rng.expovariate(1.0 / self.mean)


class AvailabilitySchedule:
    """Says when a link is up. Implementations must be time-monotone."""

    def is_up(self, time: float) -> bool:
        raise NotImplementedError

    def next_up(self, time: float) -> float:
        """Earliest instant >= *time* at which the link is up."""
        raise NotImplementedError


class AlwaysUp(AvailabilitySchedule):
    """A link that is never down."""

    def is_up(self, time: float) -> bool:
        return True

    def next_up(self, time: float) -> float:
        return time


@dataclass(frozen=True)
class UpWindows(AvailabilitySchedule):
    """Up only during the half-open windows [start, end); down otherwise.

    After the last window the link is up forever (so queued traffic always
    drains, matching the paper's reliability assumption).
    """

    windows: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        previous_end = -math.inf
        for start, end in self.windows:
            if end <= start or start < previous_end:
                raise ChannelError(f"windows must be disjoint and increasing: {self.windows}")
            previous_end = end

    def is_up(self, time: float) -> bool:
        if not self.windows or time >= self.windows[-1][1]:
            return True
        return any(start <= time < end for start, end in self.windows)

    def next_up(self, time: float) -> float:
        if self.is_up(time):
            return time
        for start, _end in self.windows:
            if start >= time:
                return start
        return time  # pragma: no cover - is_up already covers the tail


@dataclass(frozen=True)
class PeriodicAvailability(AvailabilitySchedule):
    """Dial-up style link: up for the first *up_fraction* of every period."""

    period: float
    up_fraction: float

    def __post_init__(self) -> None:
        if self.period <= 0 or not (0 < self.up_fraction <= 1):
            raise ChannelError("need period > 0 and 0 < up_fraction <= 1")

    def is_up(self, time: float) -> bool:
        phase = time % self.period
        return phase < self.up_fraction * self.period

    def next_up(self, time: float) -> float:
        if self.is_up(time):
            return time
        return (math.floor(time / self.period) + 1) * self.period


@dataclass
class ChannelStats:
    """Running totals for a single channel direction."""

    messages_sent: int = 0
    messages_delivered: int = 0
    total_delay: float = 0.0
    max_queue_length: int = 0

    @property
    def in_flight(self) -> int:
        return self.messages_sent - self.messages_delivered

    @property
    def mean_delay(self) -> float:
        if self.messages_delivered == 0:
            return 0.0
        return self.total_delay / self.messages_delivered


@dataclass(frozen=True)
class FaultPlan:
    """What an adversarial link is allowed to do to each frame.

    Attributes:
        drop_probability: chance a frame vanishes in transit.
        duplicate_probability: chance a frame is delivered twice (the
            copy trails the original by an extra sampled delay).
        reorder_probability: chance a frame skips the FIFO hold-back and
            races ahead/behind its neighbours by up to *reorder_spread*
            extra delay.
        reorder_spread: the extra delay bound for reordered frames.
        partitions: half-open ``[start, end)`` windows of virtual time
            during which every frame sent is lost.
    """

    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    reorder_probability: float = 0.0
    reorder_spread: float = 4.0
    partitions: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop_probability", "duplicate_probability", "reorder_probability"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0 or (name == "drop_probability" and p >= 1.0):
                raise ChannelError(f"{name}={p} out of range (drop must be < 1 for liveness)")
        if self.reorder_spread < 0:
            raise ChannelError(f"negative reorder_spread {self.reorder_spread}")
        previous_end = -math.inf
        for start, end in self.partitions:
            if end <= start or start < previous_end:
                raise ChannelError(f"partitions must be disjoint and increasing: {self.partitions}")
            previous_end = end

    @property
    def is_benign(self) -> bool:
        return (
            self.drop_probability == 0.0
            and self.duplicate_probability == 0.0
            and self.reorder_probability == 0.0
            and not self.partitions
        )

    def partitioned_at(self, time: float) -> bool:
        return any(start <= time < end for start, end in self.partitions)

    def next_heal(self, time: float) -> float:
        """Earliest instant >= *time* outside every partition window."""
        for start, end in self.partitions:
            if start <= time < end:
                return end
        return time


#: The do-nothing plan. A channel under NO_FAULTS delivers exactly like
#: one with no plan, but still makes the per-frame fault draws.
NO_FAULTS = FaultPlan()


class ReliableFifoChannel:
    """A unidirectional FIFO channel, reliable unless given a fault plan.

    Messages are delivered by invoking *deliver* with the payload. With
    no *faults* (the §1.1 channel) delivery order always equals send
    order: even if a later message samples a shorter delay, it is held
    back behind its predecessors.

    A :class:`FaultPlan` turns the channel into an adversarial wire:
    frames may be dropped, duplicated or reordered, and frames sent
    during a partition window are lost. Each knob breaks exactly one of
    the §1.1 assumptions, which is what the resilience layer repairs and
    what experiment X7 shows to be necessary.

    *rng* is the channel's stream, or a zero-argument callable that
    derives it on the first draw: a channel with a :class:`FixedDelay`
    and no fault plan never draws, so it never pays for seeding one.
    """

    def __init__(
        self,
        sim: Simulator,
        deliver: Callable[[Any], None],
        delay: DelayModel | float = 0.0,
        availability: AvailabilitySchedule | None = None,
        rng: random.Random | Callable[[], random.Random] | None = None,
        name: str = "channel",
        faults: FaultPlan | None = None,
    ) -> None:
        self._sim = sim
        self._deliver = deliver
        self._delay = FixedDelay(delay) if isinstance(delay, (int, float)) else delay
        self._availability = availability or AlwaysUp()
        if isinstance(rng, random.Random):
            self._rng, self._make_rng = rng, None
        else:
            self._rng, self._make_rng = None, rng or functools.partial(random.Random, 0)
        self._last_delivery = -math.inf
        self._closed = False
        self._pending = 0
        self.name = name
        #: Scheduling-domain tag of the FIFO deliveries (see _schedule_delivery).
        self._tag = f"chan:{name}"
        self.faults = faults
        self.stats = ChannelStats()
        self.frames_dropped = 0
        self.frames_duplicated = 0
        self.frames_reordered = 0

    @property
    def is_up(self) -> bool:
        now = self._sim.now
        plan = self.faults or NO_FAULTS
        return self._availability.is_up(now) and not plan.partitioned_at(now)

    def next_up_time(self) -> float:
        """Earliest instant >= now at which the link is up."""
        plan = self.faults or NO_FAULTS
        return plan.next_heal(self._availability.next_up(self._sim.now))

    def send(self, message: Any) -> float:
        """Send *message*; returns the scheduled delivery time.

        If the link is down, transmission begins at the next up-time.
        Without a fault plan the message is never lost (reliability); a
        frame the plan drops returns the current time.
        """
        if self._closed:
            raise ChannelError(f"send on closed channel {self.name!r}")
        now = self._sim.now
        self.stats.messages_sent += 1
        ordinal = self.stats.messages_sent
        tracer = self._sim.tracer
        if tracer is not None:
            tracer.emit(now, "msg.send", self.name, channel=self.name, n=ordinal)
        plan = self.faults
        if plan is not None:
            # Under a plan every frame costs one rng draw per knob, even
            # when the plan is benign, so toggling one fault never perturbs
            # the stream feeding the others. Without a plan (the §1.1
            # channel) the delay is the only draw.
            rng = self._stream()
            r_drop, r_reorder, r_dup = rng.random(), rng.random(), rng.random()
            if plan.partitioned_at(now) or r_drop < plan.drop_probability:
                self.frames_dropped += 1
                self._sim.trace("msg.drop", self.name, channel=self.name, n=ordinal)
                return now
        # The common FixedDelay and AlwaysUp are read, not called; a fixed
        # delay draws nothing, so it needs no stream.
        availability, delay = self._availability, self._delay
        deliver_at = (
            now if type(availability) is AlwaysUp else availability.next_up(now)
        ) + (delay.delay if type(delay) is FixedDelay else delay.sample(self._stream()))
        tag = self._tag
        if plan is not None and r_reorder < plan.reorder_probability:
            # Escape the FIFO hold-back: this frame's delivery time is
            # independent of its predecessors', so it can overtake them.
            deliver_at += self._stream().uniform(0.0, plan.reorder_spread)
            self.frames_reordered += 1
            tag = f"{tag}#{ordinal}"
        else:
            deliver_at = max(deliver_at, self._last_delivery)
            self._last_delivery = deliver_at
        self._schedule_delivery(deliver_at, message, now, ordinal, tag)
        if plan is not None and r_dup < plan.duplicate_probability:
            self.frames_duplicated += 1
            # A plan has drawn already, so the stream exists.
            extra = delay.sample(self._stream()) + 1e-9
            self._schedule_delivery(
                deliver_at + extra, message, now, ordinal,
                f"{self._tag}#dup{self.frames_duplicated}",
            )
        return deliver_at

    def _stream(self) -> random.Random:
        """The channel's rng, derived on the first draw."""
        if self._rng is None:
            self._rng = self._make_rng()
        return self._rng

    def _schedule_delivery(
        self, deliver_at: float, message: Any, send_time: float, ordinal: int, tag: str
    ) -> None:
        self._pending += 1
        if self._pending > self.stats.max_queue_length:
            self.stats.max_queue_length = self._pending
        # The tag is the scheduling domain: FIFO deliveries of one channel
        # direction share one, so a SchedulerPolicy can interleave them
        # against other components but never reorder them against each
        # other (FIFO is part of the channel's contract). Reordered and
        # duplicate frames are unordered by design and get a tag each.
        # The frame fires at exactly deliver_at, so its latency is known now.
        self._sim.schedule_at(
            deliver_at,
            functools.partial(self._fire, message, deliver_at - send_time, ordinal),
            tag=tag,
        )

    def _fire(self, message: Any, latency: float, ordinal: int) -> None:
        """Deliver one scheduled frame: stats, ``msg.recv``, then *deliver*."""
        self._pending -= 1
        stats = self.stats
        stats.messages_delivered += 1
        stats.total_delay += latency
        tracer = self._sim.tracer
        if tracer is not None:
            tracer.emit(
                self._sim.now, "msg.recv", self.name,
                channel=self.name, n=ordinal, latency=latency,
            )
        self._deliver(message)

    def close(self) -> None:
        """Refuse further sends. In-flight messages still deliver."""
        self._closed = True

    def state_key(self) -> tuple:
        """Sent and delivered counts, the FIFO floor and the rng state.

        A stream that was never derived keys as ``None``: it has never
        drawn, so its state is still the link's fixed initial one, and
        deriving it only to hash that state would seed a generator per
        link at every fingerprint.

        In-flight frames show up in the kernel's pending ``(time, tag)``
        signature instead; see :mod:`repro.explore.fingerprint`.
        """
        return (
            self.stats.messages_sent,
            self.stats.messages_delivered,
            self._last_delivery,
            None if self._rng is None else rng_mod.state_key(self._rng),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ReliableFifoChannel({self.name!r}, in_flight={self.stats.in_flight})"


__all__ = [
    "DelayModel",
    "FixedDelay",
    "UniformDelay",
    "ExponentialDelay",
    "AvailabilitySchedule",
    "AlwaysUp",
    "UpWindows",
    "PeriodicAvailability",
    "FaultPlan",
    "NO_FAULTS",
    "ReliableFifoChannel",
    "ChannelStats",
]
