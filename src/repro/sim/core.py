"""Deterministic discrete-event simulation kernel.

The kernel is intentionally small: a priority queue of timestamped events
and a virtual clock. Determinism is guaranteed by breaking timestamp ties
with a monotonically increasing sequence number, so two runs with the same
seed and the same call order produce identical executions. This is what
makes consistency violations reproducible (see DESIGN.md, substitutions).

Timestamp ties are also where the kernel's only *genuine* nondeterminism
hides: events scheduled by independent components for the same virtual
instant have no causally forced order, and the (time, seq) tie-break is
just one admissible serialisation of them. The :class:`SchedulerPolicy`
seam exposes that choice: a policy is asked to pick among the *enabled*
events of the current instant (one candidate per component, so intra-
component FIFO order is never violated), which is what lets the schedule
explorer (:mod:`repro.explore`) enumerate interleavings systematically
instead of following the heap order. With no policy installed — the
default — the kernel behaves bit-for-bit as it always has.

Without a policy the kernel also takes a *delivery group*
(:meth:`Simulator.schedule_group`: one broadcast's same-instant
deliveries) as one heap entry that fires its members in order; with a
policy each member is its own tagged event.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import logging
from operator import attrgetter
from typing import Any, Callable, NamedTuple, Optional, Sequence

from repro.errors import SimulationError

logger = logging.getLogger(__name__)


class EventHandle:
    """One scheduled callback, and the handle :meth:`Simulator.schedule`
    returns to cancel it. The heap holds ``(time, seq, event)`` tuples,
    which compare in C; ``seq`` is unique, so the event itself is never
    compared.

    ``tag`` is the scheduling-domain label: events with the same tag
    belong to one component (a FIFO channel direction, a process) and
    must fire in seq order relative to each other. ``None`` means
    "unknown component"; all untagged events are conservatively kept in
    order. ``taken`` is set once a policy-driven step executed the event
    out of heap order; the stale heap entry is skipped when it surfaces.
    ``view`` is the event's :class:`EnabledEvent`, built the first time a
    policy step offers it and reused at every later step.

    A delivery group (:meth:`Simulator.schedule_group`) has ``members``,
    ``(time, tag, args)`` triples that ``callback`` is called with in
    turn as ``callback(*args)``, and no ``tag`` of its own; member *i*
    holds seq ``seq + i``. A single event has ``members`` None.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "tag", "taken", "view", "members")

    def __init__(
        self, time: float, seq: int, callback: Callable[[], None], tag: Optional[str]
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.tag = tag
        self.taken = False
        self.view: Optional[EnabledEvent] = None
        self.members: Optional[list[tuple]] = None

    def cancel(self) -> None:
        """Prevent the event from firing. Cancelling twice is a no-op."""
        self.cancelled = True

    def make_view(self) -> EnabledEvent:
        self.view = EnabledEvent(self.time, self.seq, self.tag)
        return self.view


class EnabledEvent(NamedTuple):
    """What a :class:`SchedulerPolicy` sees of one schedulable event: an
    immutable view, built once per event."""

    time: float
    seq: int
    tag: Optional[str]


class SchedulerPolicy:
    """Chooses which enabled event fires next at each simulation step.

    At every step the kernel collects the events pending at the minimal
    timestamp, keeps only the earliest-scheduled event of each tag group
    (preserving per-component FIFO order), sorts the survivors by seq,
    and — when more than one remains — asks the policy to pick. The
    survivors carry pairwise distinct tags, and the candidate list is
    deterministic for a deterministic run prefix, which is what makes
    recorded tag traces replayable.
    """

    def choose(self, candidates: Sequence[EnabledEvent]) -> int:
        """Return the index (into *candidates*) of the event to fire.

        Only called when ``len(candidates) > 1``.
        """
        raise NotImplementedError

    def executed(self, event: EnabledEvent) -> None:
        """Called after every event is selected, just before its callback
        runs — including forced steps with a single candidate. *event* is
        the chosen view itself (the same object :meth:`choose` saw). Hooks
        like sleep-set bookkeeping live here."""


class FifoPolicy(SchedulerPolicy):
    """The reference policy: always pick the lowest-seq candidate.

    Because the globally lowest-seq event of the minimal timestamp is by
    construction the first candidate, installing this policy reproduces
    the default (time, seq) heap order bit-for-bit — the property test
    ``tests/properties/test_prop_explore.py`` pins this down.
    """

    def choose(self, candidates: Sequence[EnabledEvent]) -> int:
        return 0


class Simulator:
    """A discrete-event simulator with a virtual clock.

    Usage::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("fires at t=1.5"))
        sim.run()

    The simulator is single-threaded; callbacks run to completion before
    the next event fires. Any callback may schedule further events.
    """

    def __init__(
        self,
        policy: Optional[SchedulerPolicy] = None,
        instruments: Optional[Any] = None,
    ) -> None:
        self._queue: list[tuple[float, int, EventHandle]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False
        self._processed = 0
        self._policy = policy
        self._instruments: Optional[Any] = None
        #: The attached tracer, or None: the one guard of every hook site
        #: (a registry counts by reducing the trace, so it always comes
        #: with a tracer). A plain attribute, read on every delivery;
        #: set only through :attr:`instruments`.
        self.tracer: Optional[Any] = None
        self._event_counter: Optional[Any] = None
        if instruments is not None:
            self.instruments = instruments

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def instruments(self) -> Optional[Any]:
        """The attached :class:`repro.obs.instruments.Instruments` bundle,
        or None when the run is uninstrumented.

        Typed ``Any`` because the kernel deliberately does not import
        :mod:`repro.obs` — observability is downstream of the simulator.
        """
        return self._instruments

    @instruments.setter
    def instruments(self, instruments: Optional[Any]) -> None:
        if self._running:
            raise SimulationError("cannot swap instruments mid-run")
        self._instruments = instruments
        self.tracer = getattr(instruments, "tracer", None)
        metrics = getattr(instruments, "metrics", None)
        self._event_counter = (
            metrics.counter("sim_events_total") if metrics is not None else None
        )

    def trace(self, kind: str, component: str, **kwargs: Any) -> None:
        """Emit a trace event at the current virtual time, if tracing.

        A convenience over ``sim.tracer.emit(sim.now, ...)`` that no-ops
        when no tracer is attached; hook sites across the stack call this
        so the disabled cost stays one None check.
        """
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(self._now, kind, component, **kwargs)

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (diagnostic)."""
        return self._processed

    @property
    def policy(self) -> Optional[SchedulerPolicy]:
        """The installed :class:`SchedulerPolicy`, or None (heap order)."""
        return self._policy

    @policy.setter
    def policy(self, policy: Optional[SchedulerPolicy]) -> None:
        if self._running:
            raise SimulationError("cannot swap the scheduler policy mid-run")
        if policy is not None:
            self._ungroup()
        self._policy = policy

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        tag: Optional[str] = None,
    ) -> EventHandle:
        """Schedule *callback* to run *delay* time units from now.

        Events scheduled with equal fire times run in scheduling order
        (unless a :class:`SchedulerPolicy` reorders events of *different*
        tags; same-tag events always keep their scheduling order).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, tag)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        tag: Optional[str] = None,
    ) -> EventHandle:
        """Schedule *callback* at absolute virtual time *time*.

        Uses *time* exactly (no now-relative float roundtrip): two events
        scheduled at the same absolute instant fire in scheduling order,
        which the FIFO channels rely on.
        """
        if time < self._now:
            raise SimulationError(f"cannot schedule in the past (at={time}, now={self._now})")
        seq = next(self._seq)
        event = EventHandle(time, seq, callback, tag)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def schedule_group(self, fire: Callable[..., None], members: list[tuple]) -> None:
        """Schedule ``fire(*args)`` for each ``(time, tag, args)`` of
        *members*, in order, all at one instant; not cancellable.

        Without a policy the members share one heap entry and take the
        seqs ``seq .. seq + k - 1`` of k back-to-back :meth:`schedule_at`
        calls: nothing lies between them, and what they schedule fires
        after the whole group, so the heap order is that of k single
        events. With a policy each member is its own event at its own
        time and tag: the per-event oracle of the grouped path.
        """
        if self._policy is not None:
            for time, tag, args in members:
                self.schedule_at(time, functools.partial(fire, *args), tag)
            return
        time = members[0][0]
        if time < self._now:
            raise SimulationError(f"cannot schedule in the past (at={time}, now={self._now})")
        seq = next(self._seq)
        if len(members) > 1:
            self._seq = itertools.count(seq + len(members))
        group = EventHandle(time, seq, fire, None)
        group.members = members
        heapq.heappush(self._queue, (time, seq, group))

    def call_soon(
        self, callback: Callable[[], None], tag: Optional[str] = None
    ) -> EventHandle:
        """Schedule *callback* at the current time, after pending events
        with the same timestamp."""
        return self.schedule(0.0, callback, tag=tag)

    def step(self) -> bool:
        """Run the next pending heap entry, which may be a whole delivery
        group (:meth:`schedule_group`). Returns False if the queue is empty.

        Without a policy the next event is the heap minimum by (time,
        seq). With a :class:`SchedulerPolicy` installed, the policy picks
        among the enabled events of the minimal timestamp (one per tag
        group), so equal-time events of independent components may fire
        in any admissible order.
        """
        return self._fire_next(None, 1) == 1

    def enabled_events(self) -> list[EnabledEvent]:
        """The events a policy may currently choose among: pending events
        at the minimal timestamp, reduced to the earliest per tag group
        (untagged events form one conservative group), sorted by seq."""
        self._ungroup()
        return [event.view or event.make_view() for event in self._candidates()]

    def _candidates(self) -> list[EventHandle]:
        """The heap entries behind :meth:`enabled_events`."""
        head = self._peek()
        if head is None:
            return []
        now_time = head.time
        groups: dict[Optional[str], EventHandle] = {}
        for time, seq, event in self._queue:
            if time != now_time or event.cancelled or event.taken:
                continue
            held = groups.get(event.tag)
            if held is None or seq < held.seq:
                groups[event.tag] = event
        return sorted(groups.values(), key=attrgetter("seq"))

    def _policy_step(self) -> None:
        """Fire the policy's pick among the candidates; the queue holds a
        live event, so there is at least one."""
        candidates = self._candidates()
        views = [event.view or event.make_view() for event in candidates]
        index = 0 if len(views) == 1 else self._policy.choose(views)
        if not 0 <= index < len(candidates):
            raise SimulationError(
                f"scheduler policy chose {index} among {len(candidates)} candidates"
            )
        chosen = candidates[index]
        chosen.taken = True
        if chosen is self._queue[0][2]:
            heapq.heappop(self._queue)
        self._now = chosen.time
        self._processed += 1
        if self._event_counter is not None:
            self._event_counter.inc()
        self._policy.executed(views[index])
        chosen.callback()

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run events until the queue drains, *until* is reached, or
        *max_events* events have been processed. Returns the final time.

        Event selection per step follows :meth:`step`: heap (time, seq)
        order by default, or the installed :class:`SchedulerPolicy`'s
        choices among enabled same-timestamp events. *max_events* counts
        heap entries, as :meth:`step` does.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        try:
            executed = self._fire_next(until, max_events)
            if until is not None and self._now < until and not self._queue:
                self._now = until
        finally:
            self._running = False
        logger.debug(
            "run stopped at t=%.3f (%d events executed, %d pending)",
            self._now,
            executed,
            self.pending,
        )
        return self._now

    def _fire_next(self, until: Optional[float], max_events: Optional[int]) -> int:
        """Fire events until the queue drains, the next one lies past
        *until* (the clock then stops at *until*) or *max_events* have
        fired; returns how many fired.

        Cancelled and taken heap entries are skipped as they surface.
        Without a policy the live head is popped and fired right here;
        with one, the head only fixes the instant and the policy picks
        the event among that instant's candidates.
        """
        queue = self._queue
        pop = heapq.heappop
        policy = self._policy
        counter = self._event_counter
        executed = 0
        while queue:
            if max_events is not None and executed >= max_events:
                break
            time, _seq, event = queue[0]
            if event.cancelled or event.taken:
                pop(queue)
                continue
            if until is not None and time > until:
                self._now = until
                break
            if policy is not None:
                self._policy_step()
            else:
                pop(queue)
                if time < self._now:
                    raise SimulationError("event queue went backwards in time")
                self._now = time
                members = event.members
                if members is None:
                    self._processed += 1
                    if counter is not None:
                        counter.inc()
                    event.callback()
                else:
                    fire = event.callback
                    for _, _, args in members:
                        self._processed += 1
                        if counter is not None:
                            counter.inc()
                        fire(*args)
            executed += 1
        return executed

    def _peek(self) -> Optional[EventHandle]:
        queue = self._queue
        while queue and (queue[0][2].cancelled or queue[0][2].taken):
            heapq.heappop(queue)
        return queue[0][2] if queue else None

    def _ungroup(self) -> None:
        """Split each pending delivery group into single events at the
        seqs its members took, so the heap order stays the same. No group
        is made while a policy is installed."""
        if self._policy is not None:
            return
        queue = self._queue
        groups = [entry for entry in queue if entry[2].members]
        if groups:
            queue[:] = [entry for entry in queue if not entry[2].members]
            for time, seq, group in groups:
                for at, (_, tag, args) in enumerate(group.members, seq):
                    single = functools.partial(group.callback, *args)
                    queue.append((time, at, EventHandle(time, at, single, tag)))
            heapq.heapify(queue)

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued; a delivery
        group counts its members."""
        return sum(
            len(event.members) if event.members else 1
            for _, _, event in self._queue
            if not (event.cancelled or event.taken)
        )

    def close(self) -> None:
        """Drop the pending events and the policy once the run is over.

        Both are back-edges into the components: event callbacks are
        their bound methods and closures, and the explorer's policy binds
        every component's ``state_key``. Without them a finished run is
        freed by reference counting instead of the cyclic collector. The
        clock and :attr:`events_processed` stay readable.
        """
        if self._running:
            raise SimulationError("cannot close a running simulator")
        self._queue.clear()
        self._policy = None

    def pending_signature(self) -> tuple[tuple[float, str], ...]:
        """A schedule-independent digest of the in-flight events: the
        sorted multiset of (time, tag) pairs. Sequence numbers are
        deliberately excluded — they depend on the order in which events
        were *scheduled*, which differs between interleavings that are
        otherwise state-equivalent (used by the explorer's fingerprints).
        """
        self._ungroup()
        return tuple(
            sorted(
                (time, event.tag or "")
                for time, _, event in self._queue
                if not (event.cancelled or event.taken)
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(now={self._now:.3f}, pending={self.pending})"


__all__ = ["Simulator", "EventHandle", "EnabledEvent", "SchedulerPolicy", "FifoPolicy"]
