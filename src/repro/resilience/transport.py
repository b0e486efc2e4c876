"""Building the paper's reliable FIFO channel out of lossy parts.

The IS-protocols *assume* "a bidirectional reliable FIFO channel
connecting one process from each system" (§1.1); every correctness result
downstream (Lemma 1, Theorem 1) leans on that assumption. This module
discharges it constructively.

:class:`ResilientTransport` is a session layer that recovers the
reliable-FIFO contract on top of two adversarial wires (one for DATA
frames, one for cumulative ACKs). Each wire is a
:class:`~repro.sim.channel.ReliableFifoChannel` driven by a
:class:`~repro.sim.channel.FaultPlan`: frames may be dropped, duplicated
or reordered, and frames sent during a partition window are lost. The
session uses per-message sequence numbers, out-of-order buffering at the
receiver, cumulative acknowledgements, and retransmission with
exponential backoff plus jitter (:class:`RetryPolicy`). Delivery to the
application callback is exactly-once and in send order — precisely the
§1.1 channel — as long as every frame has a nonzero chance of crossing
eventually.

The transport deliberately mirrors :class:`ReliableFifoChannel`'s
constructor and surface (``send``/``stats``/``is_up``/``close``) so
:func:`repro.interconnect.bridge.connect` can swap it in without the
IS-processes noticing; that substitutability *is* the point.

Crash-recovery of the endpoints (the session state is volatile) is
layered on separately: :mod:`repro.resilience.recovery` journals the
session through a write-ahead log and restores it with
:meth:`ResilientTransport.restore_sender` /
:meth:`ResilientTransport.restore_receiver`.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.errors import ChannelError
from repro.sim.channel import (
    NO_FAULTS,
    AvailabilitySchedule,
    ChannelStats,
    DelayModel,
    FaultPlan,
    ReliableFifoChannel,
)
from repro.sim.core import EventHandle, Simulator


@dataclass(frozen=True)
class RetryPolicy:
    """Retransmission timing: exponential backoff with jitter.

    The n-th consecutive timeout without ack progress waits
    ``min(base_timeout * multiplier**n, max_timeout)`` scaled by a
    random factor in ``[1, 1 + jitter]``. Progress resets n to 0.
    """

    base_timeout: float = 4.0
    multiplier: float = 2.0
    max_timeout: float = 60.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.base_timeout <= 0 or self.multiplier < 1 or self.jitter < 0:
            raise ChannelError(f"bad retry policy {self}")
        if self.max_timeout < self.base_timeout:
            raise ChannelError("max_timeout must be >= base_timeout")

    def timeout(self, attempt: int, rng: random.Random) -> float:
        raw = min(self.base_timeout * self.multiplier ** attempt, self.max_timeout)
        return raw * (1.0 + rng.random() * self.jitter)


@dataclass
class TransportStats:
    """Wire-level accounting of one transport direction (stats beyond the
    app-level :class:`ChannelStats` kept in ``.stats``)."""

    data_frames_sent: int = 0
    retransmissions: int = 0
    acks_sent: int = 0
    stale_frames: int = 0
    buffered_out_of_order: int = 0
    frames_refused: int = 0  # dropped because the endpoint host was down

    @property
    def retransmit_overhead(self) -> float:
        """Fraction of DATA frames that were retransmissions."""
        if self.data_frames_sent == 0:
            return 0.0
        return self.retransmissions / self.data_frames_sent


_DATA = "DATA"
_ACK = "ACK"


class ResilientTransport:
    """Exactly-once FIFO delivery over lossy wires (the §1.1 channel, earned).

    One instance is one *direction*: ``send()`` is called at the sender
    end, *deliver* fires at the receiver end. Internally it owns two
    :class:`ReliableFifoChannel` wires — DATA frames sender->receiver and
    ACK frames receiver->sender — both driven by the same
    :class:`FaultPlan` (independent rng streams). Without *faults* the
    wires run under :data:`NO_FAULTS`.

    Protocol: every message gets a sequence number; the receiver delivers
    in sequence order, buffering out-of-order arrivals, and acknowledges
    cumulatively (the ack names the next sequence it is waiting for).
    Unacknowledged frames are retransmitted on a timer with exponential
    backoff and jitter (:class:`RetryPolicy`). Duplicates — whether
    injected by the wire or by retransmission — are filtered by sequence
    number, so delivery is exactly-once however badly the wire behaves.

    Hooks (``on_assign``, ``on_ack_progress``, ``on_deliver``) and the
    ``restore_sender``/``restore_receiver`` methods exist for the
    durability layer, which journals the session state through a WAL and
    rebuilds it after an endpoint crash; ``sender_up``/``receiver_up``
    gate frame processing while the owning IS-process is down.
    """

    def __init__(
        self,
        sim: Simulator,
        deliver: Callable[[Any], None],
        delay: DelayModel | float = 0.0,
        availability: Optional[AvailabilitySchedule] = None,
        rng: Optional[random.Random] = None,
        name: str = "resilient",
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        sender_up: Optional[Callable[[], bool]] = None,
        receiver_up: Optional[Callable[[], bool]] = None,
    ) -> None:
        self._sim = sim
        self._deliver = deliver
        self._rng = rng or random.Random(0)
        self.name = name
        self.retry = retry or RetryPolicy()
        self._sender_up = sender_up or (lambda: True)
        self._receiver_up = receiver_up or (lambda: True)
        self._closed = False
        # Two independent lossy wires; splitting the rng keeps the fault
        # schedule deterministic per direction.
        data_rng = random.Random(self._rng.getrandbits(48))
        ack_rng = random.Random(self._rng.getrandbits(48))
        # The wires are this transport's own, so they call back into it
        # weakly and a finished run is freed by reference counting.
        me = weakref.proxy(self)
        self._wire_data = ReliableFifoChannel(
            sim, lambda frame: me._on_data_frame(frame), delay=delay,
            availability=availability, rng=data_rng, name=f"{name}:data",
            faults=faults or NO_FAULTS,
        )
        self._wire_ack = ReliableFifoChannel(
            sim, lambda frame: me._on_ack_frame(frame), delay=delay,
            availability=availability, rng=ack_rng, name=f"{name}:ack",
            faults=faults or NO_FAULTS,
        )
        # Sender-side session state (volatile; journalled by the WAL layer).
        self._next_seq = 0
        self._unacked: dict[int, Any] = {}  # seq -> message, insertion = seq order
        self._sent_at: dict[int, float] = {}
        self._retry_handle: Optional[EventHandle] = None
        self._backoff_level = 0
        # Receiver-side session state.
        self._next_expected = 0
        self._out_of_order: dict[int, Any] = {}
        # Accounting.
        self.stats = ChannelStats()  # app-level messages, ChannelStats-compatible
        self.wire = TransportStats()
        # Durability hooks.
        self.on_assign: Optional[Callable[[int, Any], None]] = None
        self.on_ack_progress: Optional[Callable[[int], None]] = None
        self.on_deliver: Optional[Callable[[int, Any], None]] = None

    # -- ReliableFifoChannel surface ---------------------------------------

    @property
    def is_up(self) -> bool:
        return self._wire_data.is_up

    def next_up_time(self) -> float:
        return self._wire_data.next_up_time()

    @property
    def faults(self) -> FaultPlan:
        return self._wire_data.faults

    def send(self, message: Any) -> float:
        """Accept *message* for exactly-once FIFO delivery; returns the
        first transmission attempt's scheduled arrival (the wire may well
        lose it — the session layer is what makes the promise)."""
        if self._closed:
            raise ChannelError(f"send on closed transport {self.name!r}")
        seq = self._next_seq
        self._next_seq += 1
        self._unacked[seq] = message
        self._sent_at[seq] = self._sim.now
        self.stats.messages_sent += 1
        self.stats.max_queue_length = max(self.stats.max_queue_length, len(self._unacked))
        if self.on_assign is not None:
            self.on_assign(seq, message)
        eta = self._transmit(seq, message)
        self._arm_timer()
        return eta

    def close(self) -> None:
        """Refuse further sends; in-flight frames still deliver."""
        self._closed = True
        if self._retry_handle is not None:
            self._retry_handle.cancel()
            self._retry_handle = None

    # -- sender side --------------------------------------------------------

    def _transmit(self, seq: int, message: Any) -> float:
        self.wire.data_frames_sent += 1
        return self._wire_data.send((_DATA, seq, message))

    def _arm_timer(self) -> None:
        if self._retry_handle is not None or not self._unacked:
            return
        timeout = self.retry.timeout(self._backoff_level, self._rng)
        self._retry_handle = self._sim.schedule(timeout, self._on_timeout)

    def _on_timeout(self) -> None:
        self._retry_handle = None
        if not self._unacked:
            return
        if self._sender_up():
            for seq, message in self._unacked.items():
                self._note_retransmit(seq)
                self._transmit(seq, message)
        self._backoff_level += 1
        self._arm_timer()

    def _note_retransmit(self, seq: int) -> None:
        self.wire.retransmissions += 1
        tracer = self._sim.tracer
        if tracer is not None:
            tracer.emit(self._sim.now, "retransmit", self.name, seq=seq)

    def _on_ack_frame(self, frame: Any) -> None:
        _, cumulative = frame
        if not self._sender_up():
            self.wire.frames_refused += 1
            return
        progressed = False
        for seq in [s for s in self._unacked if s < cumulative]:
            del self._unacked[seq]
            self._sent_at.pop(seq, None)
            progressed = True
        if not progressed:
            return
        self._backoff_level = 0
        if self._retry_handle is not None:
            self._retry_handle.cancel()
            self._retry_handle = None
        if self.on_ack_progress is not None:
            self.on_ack_progress(cumulative)
        self._arm_timer()

    def restore_sender(self, next_seq: int, unacked: list[tuple[int, Any]]) -> None:
        """Rebuild the sender session after a host crash (WAL replay) and
        retransmit everything not known to be acknowledged."""
        if self._retry_handle is not None:
            self._retry_handle.cancel()
            self._retry_handle = None
        self._next_seq = next_seq
        self._unacked = dict(sorted(unacked))
        self._sent_at = {seq: self._sim.now for seq in self._unacked}
        self._backoff_level = 0
        for seq, message in self._unacked.items():
            self._note_retransmit(seq)
            self._transmit(seq, message)
        self._arm_timer()

    def freeze_sender(self) -> None:
        """Stop the retransmission timer (the sending host just crashed)."""
        if self._retry_handle is not None:
            self._retry_handle.cancel()
            self._retry_handle = None

    # -- receiver side ------------------------------------------------------

    def _on_data_frame(self, frame: Any) -> None:
        _, seq, message = frame
        if not self._receiver_up():
            self.wire.frames_refused += 1
            return
        if seq < self._next_expected:
            # Duplicate of something already delivered: the ack that
            # retired it must have been lost. Re-ack, don't re-deliver.
            self.wire.stale_frames += 1
            self._send_ack()
            return
        if seq == self._next_expected:
            self._accept(seq, message)
            while self._next_expected in self._out_of_order:
                self._accept(self._next_expected, self._out_of_order.pop(self._next_expected))
        else:
            if seq not in self._out_of_order:
                self.wire.buffered_out_of_order += 1
                self._out_of_order[seq] = message
        self._send_ack()

    def _accept(self, seq: int, message: Any) -> None:
        self._next_expected = seq + 1
        self.stats.messages_delivered += 1
        sent_at = self._sent_at.get(seq)
        if sent_at is not None:
            self.stats.total_delay += self._sim.now - sent_at
        if self.on_deliver is not None:
            self.on_deliver(seq, message)
        self._deliver(message)

    def _send_ack(self) -> None:
        self.wire.acks_sent += 1
        self._wire_ack.send((_ACK, self._next_expected))

    def restore_receiver(self, next_expected: int) -> None:
        """Rebuild the receiver session after a host crash (WAL replay).

        The out-of-order buffer died with the host; the peer's
        retransmissions will refill it. Re-ack immediately so a peer deep
        in backoff learns which frames already landed before the crash.
        """
        self._next_expected = next_expected
        self._out_of_order.clear()
        self._send_ack()

    # -- diagnostics --------------------------------------------------------

    @property
    def frames_lost_on_wire(self) -> int:
        return self._wire_data.frames_dropped + self._wire_ack.frames_dropped

    @property
    def in_flight(self) -> int:
        return len(self._unacked)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ResilientTransport({self.name!r}, unacked={len(self._unacked)}, "
            f"next_expected={self._next_expected})"
        )


__all__ = [
    "RetryPolicy",
    "TransportStats",
    "ResilientTransport",
]
