"""Sequencer-free sequential consistency: Lamport total-order broadcast.

The second sequential protocol of the library (the first,
:mod:`repro.protocols.sequential`, funnels writes through a sequencer).
Here the total order is symmetric, ISIS-style:

* every write is multicast with a Lamport timestamp ``(counter, proc)``;
* every receiver immediately multicasts an acknowledgement carrying its
  advanced clock;
* a pending write is *stable* — deliverable — once a message with a
  strictly larger timestamp has been seen from every other process
  (Lamport clocks only move forward, so nothing earlier can still
  arrive), and pending writes are delivered in timestamp order.

All replicas therefore apply writes in one agreed total order: sequential
consistency, with fast local reads and writer blocking until its own
write stabilises (Attiya–Welch style). The price of symmetry is message
count — ``(n-1)`` write messages plus ``(n-1)^2`` acks per write versus
the sequencer's ``n`` — which the protocol-zoo benchmark makes visible.

Satisfies Causal Updating: the Lamport total order extends causality and
replicas apply in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.memory.interface import MCSProcess
from repro.protocols.base import ProtocolSpec, register
from repro.protocols.sequencer import Sequencer
from repro.sim.clock import LamportClock, LamportTimestamp


@dataclass(frozen=True)
class TotalOrderWrite:
    """A write multicast with its Lamport timestamp."""

    ts: LamportTimestamp
    var: str
    value: Any
    origin: str


@dataclass(frozen=True)
class ClockAck:
    """An acknowledgement carrying the sender's advanced clock."""

    ts: LamportTimestamp


class LamportSequentialMCS(MCSProcess):
    """One MCS-process of the symmetric total-order protocol."""

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._clock = LamportClock(self.proc_index)
        self._pending: dict[LamportTimestamp, TotalOrderWrite] = {}
        self._latest_seen: dict[str, int] = {}
        #: Only the blocked writers: the total order is the timestamps'.
        self._writers = Sequencer(self.name)

    # -- call handling -----------------------------------------------------

    def _handle_write(self, var: str, value: Any, done: Callable[[], None]) -> None:
        ts = self._clock.tick()
        write = TotalOrderWrite(ts=ts, var=var, value=value, origin=self.name)
        self._pending[ts] = write
        self._writers.wait(var, value, done)
        self.network.broadcast(self.name, write)
        self._try_deliver()

    def state_key(self) -> tuple:
        return self._replica_key() + (
            self._clock.current,
            tuple(sorted(self._pending.items())),
            tuple(sorted(self._latest_seen.items())),
        ) + self._writers.state_key()

    # -- total order --------------------------------------------------------

    def _observe(self, src: str, ts: LamportTimestamp) -> None:
        self._latest_seen[src] = max(self._latest_seen.get(src, 0), ts.counter)

    def _on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, TotalOrderWrite):
            self._observe(src, payload.ts)
            ack_ts = self._clock.observe(payload.ts)
            self._pending[payload.ts] = payload
            self.network.broadcast(self.name, ClockAck(ts=ack_ts))
        elif isinstance(payload, ClockAck):
            self._observe(src, payload.ts)
            self._clock.observe(payload.ts)
        else:
            raise TypeError(f"{self.name}: unexpected payload {payload!r}")
        self._try_deliver()

    def _stable(self, ts: LamportTimestamp, origin: str) -> bool:
        """Nothing with a smaller timestamp can still arrive: a strictly
        larger timestamp has been seen from every other node."""
        for node in self.network.node_ids:
            if node in (self.name, origin):
                continue
            if self._latest_seen.get(node, 0) <= ts.counter:
                return False
        return True

    def _try_deliver(self) -> None:
        while self._pending:
            ts = min(self._pending)
            write = self._pending[ts]
            if not self._stable(ts, write.origin):
                return
            del self._pending[ts]
            self._apply(write)

    def _apply(self, write: TotalOrderWrite) -> None:
        own = write.origin == self.name
        self._apply_with_upcalls(write, own_write=own)
        if own:
            self._writers.answer(write)


LAMPORT_SEQUENTIAL = register(
    ProtocolSpec(
        name="lamport-sequential",
        factory=LamportSequentialMCS,
        causal_updating=True,
        consistency="sequential",
    )
)

__all__ = ["LamportSequentialMCS", "LAMPORT_SEQUENTIAL", "TotalOrderWrite", "ClockAck"]
