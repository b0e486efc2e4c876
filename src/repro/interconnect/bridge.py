"""Pairwise interconnection of two DSM systems (§3).

:func:`connect` wires systems S^k and S^kbar together: it creates (or
reuses, in shared mode) an IS-process in each system, attached to a fresh
exclusive MCS-process, and joins the two IS-processes with a bidirectional
reliable FIFO channel. The IS-protocol variant on each side is chosen from
that side's MCS protocol: IS-protocol 1 if it satisfies Causal Updating,
IS-protocol 2 otherwise (the ``pre_update`` upcalls are enabled exactly
when needed, as the paper prescribes).

The channel joining the IS-processes comes in two flavours:

* ``transport="reliable"`` (default) — the paper's *assumed*
  :class:`ReliableFifoChannel`;
* ``transport="resilient"`` — the assumption *discharged*: a
  :class:`~repro.resilience.transport.ResilientTransport` session that
  rebuilds exactly-once FIFO delivery over a lossy, reordering,
  duplicating, partition-prone wire (``faults=``). Adding
  ``durability="wal"`` additionally makes both IS-processes restartable
  (:class:`~repro.resilience.recovery.RecoverableISProcess`), journalling
  their propagation state through a write-ahead log.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from typing import Optional, Union

from repro.errors import ConfigurationError
from repro.interconnect.is_process import ISProcess, PropagatedPair
from repro.memory.system import DSMSystem
from repro.resilience.transport import ResilientTransport, RetryPolicy
from repro.sim import rng as rng_mod
from repro.sim.channel import AvailabilitySchedule, DelayModel, FaultPlan, ReliableFifoChannel


@dataclass
class Bridge:
    """A live interconnection link between two systems."""

    name: str
    system_a: DSMSystem
    system_b: DSMSystem
    isp_a: ISProcess
    isp_b: ISProcess
    channel_ab: Union[ReliableFifoChannel, ResilientTransport]
    channel_ba: Union[ReliableFifoChannel, ResilientTransport]

    @property
    def pairs_a_to_b(self) -> int:
        return self.isp_a.link_stats(self.isp_b.name)[0]

    @property
    def pairs_b_to_a(self) -> int:
        return self.isp_b.link_stats(self.isp_a.name)[0]

    @property
    def messages_crossing(self) -> int:
        """Total IS messages that crossed this link, both directions."""
        return self.channel_ab.stats.messages_sent + self.channel_ba.stats.messages_sent


def _obtain_isp(
    system: DSMSystem,
    bridge_name: str,
    shared: bool,
    use_pre_update: Optional[bool],
    read_before_send: bool,
    segment: str,
    coalesce_queued: bool = False,
    dedup_incoming: bool = False,
    durability: Optional[str] = None,
) -> ISProcess:
    """Create an IS-process in *system*, or reuse its shared one."""
    if use_pre_update is None:
        use_pre_update = not system.protocol.causal_updating
    if shared:
        existing: Optional[ISProcess] = getattr(system, "_shared_isp", None)
        if existing is not None:
            if existing.wants_pre_update != use_pre_update:
                raise ConfigurationError(
                    f"shared IS-process of {system.name!r} already exists with a "
                    "different IS-protocol variant"
                )
            if durability == "wal" and not hasattr(existing, "wal"):
                raise ConfigurationError(
                    f"shared IS-process of {system.name!r} already exists without "
                    "WAL durability"
                )
            return existing
    label = f"isp:{system.name}" if shared else f"isp:{system.name}:{bridge_name}"
    # The "~" prefix makes the IS-attached MCS node sort *after* every
    # application MCS node: protocols that elect a distinguished node by
    # smallest id (e.g. the sequential protocol's sequencer) must not see
    # their election change just because an interconnection was added —
    # that would alter local response times, contradicting §6.
    mcs = system.new_mcs(f"~{label}", segment=segment)
    if durability == "wal":
        # Imported lazily: recovery sits above interconnect in the layering.
        from repro.resilience.recovery import RecoverableISProcess

        isp: ISProcess = RecoverableISProcess(
            sim=system.sim,
            name=label,
            mcs=mcs,
            recorder=system.recorder,
            use_pre_update=use_pre_update,
            read_before_send=read_before_send,
            coalesce_queued=coalesce_queued,
        )
    else:
        isp = ISProcess(
            sim=system.sim,
            name=label,
            mcs=mcs,
            recorder=system.recorder,
            use_pre_update=use_pre_update,
            read_before_send=read_before_send,
            coalesce_queued=coalesce_queued,
            dedup_incoming=dedup_incoming,
        )
    if shared:
        system._shared_isp = isp  # noqa: SLF001 - deliberate cache on the system
    return isp


def connect(
    system_a: DSMSystem,
    system_b: DSMSystem,
    delay: DelayModel | float = 1.0,
    availability: Optional[AvailabilitySchedule] = None,
    shared: bool = True,
    use_pre_update: Optional[bool] = None,
    read_before_send: bool = True,
    coalesce_queued: bool = False,
    dedup_incoming: bool = False,
    segment_a: str = "default",
    segment_b: str = "default",
    seed: int = 0,
    name: Optional[str] = None,
    channel_factory=None,
    transport: str = "reliable",
    faults: Optional[FaultPlan] = None,
    retry: Optional[RetryPolicy] = None,
    durability: Optional[str] = None,
    tracer=None,
    metrics=None,
) -> Bridge:
    """Interconnect two systems with the paper's IS-protocols.

    Args:
        delay: inter-IS channel delay model (the paper's ``d``).
        availability: optional link availability schedule (dial-up, §1.1).
        shared: reuse one IS-process per system across links (the §6
            performance model); False creates a fresh IS-process per link
            (the §5 pairwise construction).
        use_pre_update: force IS-protocol 2 (True) or 1 (False) on *both*
            sides; None (default) chooses per side from the protocol's
            Causal Updating property.
        read_before_send: False drops ``Propagate_out``'s read (E8
            ablation; unsound in general).
        coalesce_queued: merge consecutive same-variable pairs queued
            while the link is down (extension X4).
        dedup_incoming: make ``Propagate_in`` idempotent (X7: tolerate
            at-least-once channels).
        seed: root of the link's rng streams, which are derived from
            (*seed*, bridge name, direction).
        name: the bridge name; defaults to ``link:{a}-{b}`` from the two
            system names, so a run's rng streams do not depend on how
            many bridges the process built before it.
        channel_factory: override the channel joining the two
            IS-processes (default :class:`ReliableFifoChannel`). Called
            with the same keyword arguments as ``ReliableFifoChannel``;
            its ``rng`` is a zero-argument callable that derives the
            link's stream, so a link that never draws never seeds one.
            The X7 experiments pass
            ``functools.partial(ReliableFifoChannel, faults=...)`` to
            break one channel assumption at a time.
        transport: ``"reliable"`` assumes the §1.1 channel;
            ``"resilient"`` constructs it from lossy parts
            (:class:`~repro.resilience.transport.ResilientTransport`).
        faults: adversarial wire behaviour for the resilient transport
            (drop/duplicate/reorder probabilities, partition windows).
        retry: retransmission policy for the resilient transport.
        durability: ``"wal"`` makes both IS-processes restartable with
            write-ahead-logged propagation state (requires the resilient
            transport: a crashed process must be able to refuse frames
            and have the peer retransmit them).
        tracer: optional :class:`repro.obs.tracer.Tracer` to install on
            the shared simulator (merged with any instruments already
            attached) — the whole run becomes traced, not just this link.
        metrics: optional :class:`repro.obs.metrics.MetricsRegistry`,
            installed the same way.

    Returns:
        The :class:`Bridge` handle, with link statistics.
    """
    if system_a.sim is not system_b.sim:
        raise ConfigurationError("both systems must share one simulator")
    if tracer is not None or metrics is not None:
        # Imported lazily: obs is optional at this layer.
        from repro.obs.instruments import combine

        system_a.sim.instruments = combine(tracer, metrics, system_a.sim.instruments)
    if system_a.recorder is not system_b.recorder:
        raise ConfigurationError(
            "both systems must share one history recorder so the global "
            "computation alpha^T can be assembled"
        )
    if system_a is system_b:
        raise ConfigurationError("cannot interconnect a system with itself")
    if transport not in ("reliable", "resilient"):
        raise ConfigurationError(f"unknown transport {transport!r}")
    if durability not in (None, "wal"):
        raise ConfigurationError(f"unknown durability mode {durability!r}")
    if transport != "resilient":
        if faults is not None and not faults.is_benign:
            raise ConfigurationError(
                "an adversarial fault plan needs transport='resilient' — the "
                "reliable channel would silently violate its own contract"
            )
        if durability is not None:
            raise ConfigurationError(
                "durability='wal' requires transport='resilient': a crashed "
                "IS-process relies on the session layer to retransmit the "
                "frames it missed"
            )
        if retry is not None:
            raise ConfigurationError("retry policies apply to transport='resilient' only")
    if transport == "resilient" and channel_factory is not None:
        raise ConfigurationError("channel_factory and transport='resilient' are exclusive")
    bridge_name = name or f"link:{system_a.name}-{system_b.name}"
    isp_a = _obtain_isp(
        system_a, bridge_name, shared, use_pre_update, read_before_send, segment_a,
        coalesce_queued, dedup_incoming, durability,
    )
    isp_b = _obtain_isp(
        system_b, bridge_name, shared, use_pre_update, read_before_send, segment_b,
        coalesce_queued, dedup_incoming, durability,
    )

    sim = system_a.sim

    def deliver_to(isp: ISProcess):
        # Weak: the channel carrying this closure belongs to the other
        # IS-process, and *isp* is owned by the Bridge and by its
        # MCS-process's upcall attachment.
        peer = weakref.proxy(isp)

        def deliver(message: tuple[str, PropagatedPair]) -> None:
            sender, pair = message
            peer.receive(sender, pair)

        return deliver

    def alive(isp: ISProcess):
        # Weak for the same reason: the transports probing *isp* belong to
        # it (outgoing) or to its peer (incoming, which *isp* registers).
        peer = weakref.proxy(isp)
        return lambda: peer.alive

    if transport == "resilient":
        durable = durability == "wal"
        channel_ab = ResilientTransport(
            sim,
            deliver=deliver_to(isp_b),
            delay=delay,
            availability=availability,
            rng=rng_mod.derive(seed, bridge_name, "ab"),
            name=f"{bridge_name}:{isp_a.name}->{isp_b.name}",
            faults=faults,
            retry=retry,
            sender_up=alive(isp_a) if durable else None,
            receiver_up=alive(isp_b) if durable else None,
        )
        channel_ba = ResilientTransport(
            sim,
            deliver=deliver_to(isp_a),
            delay=delay,
            availability=availability,
            rng=rng_mod.derive(seed, bridge_name, "ba"),
            name=f"{bridge_name}:{isp_b.name}->{isp_a.name}",
            faults=faults,
            retry=retry,
            sender_up=alive(isp_b) if durable else None,
            receiver_up=alive(isp_a) if durable else None,
        )
        if durable:
            isp_a.register_incoming(isp_b.name, channel_ba)
            isp_b.register_incoming(isp_a.name, channel_ab)
    else:
        factory = channel_factory or ReliableFifoChannel
        channel_ab = factory(
            sim,
            deliver=deliver_to(isp_b),
            delay=delay,
            availability=availability,
            rng=functools.partial(rng_mod.derive, seed, bridge_name, "ab"),
            name=f"{bridge_name}:{isp_a.name}->{isp_b.name}",
        )
        channel_ba = factory(
            sim,
            deliver=deliver_to(isp_a),
            delay=delay,
            availability=availability,
            rng=functools.partial(rng_mod.derive, seed, bridge_name, "ba"),
            name=f"{bridge_name}:{isp_b.name}->{isp_a.name}",
        )
    isp_a.add_peer(isp_b.name, channel_ab)
    isp_b.add_peer(isp_a.name, channel_ba)
    if sim.tracer is not None:
        sim.trace(
            "bridge.connect",
            bridge_name,
            a=isp_a.name,
            b=isp_b.name,
            transport=transport,
            shared=shared,
        )
    return Bridge(
        name=bridge_name,
        system_a=system_a,
        system_b=system_b,
        isp_a=isp_a,
        isp_b=isp_b,
        channel_ab=channel_ab,
        channel_ba=channel_ba,
    )


__all__ = ["Bridge", "connect"]
