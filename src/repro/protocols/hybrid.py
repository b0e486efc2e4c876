"""Hybrid consistency: per-operation strong and weak writes.

Beyond the paper, within its world. The paper notes (§1.1) that its
interconnection results apply to models stronger than causal too; modern
geo-replicated stores go the other way and mix strengths *per operation*
(RedBlue consistency, and the hybrid consistency of Attiya–Friedman).
This protocol realises that mix on the library's substrate:

* **weak writes** are the vector-clock causal protocol, inherited from
  :class:`~repro.protocols.vector.VectorCausalMCS` — immediate response,
  vector-timestamped broadcast, causally gated apply;
* **strong writes** take the sequencer path — a global sequence number
  plus the usual vector timestamp; replicas apply a strong write only
  when it is both next in the strong total order and causally ready, and
  the writer blocks until its own strong write applies locally.

Guarantees: the whole computation is causal (both write classes apply in
causal order everywhere), and additionally every replica applies the
strong writes in one agreed total order (exposed as
``strong_apply_log`` and verified by the test suite). Weak writes cost
``n-1`` messages and zero latency; strong writes cost ``n+1`` messages
and a sequencer round trip — the per-operation version of the zoo's
causal/sequential trade.

Interconnection: only ⟨variable, value⟩ pairs cross a bridge, so the
strength of a write is invisible to the peer system — strong writes
re-enter other systems as (causal) IS-process writes. The union is
causal (Theorem 1 applies: this protocol is causal and satisfies Causal
Updating), but the strong total order is *per system*, exactly as
sequential consistency is lost in E10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.memory.interface import MCSProcess, callback_names
from repro.protocols.base import ProtocolSpec, register
from repro.protocols.messages import CausalUpdate
from repro.protocols.vector import VectorCausalMCS
from repro.sim.clock import VectorClock


@dataclass(frozen=True)
class StrongRequest:
    """A strong write forwarded to the sequencer for ordering."""

    var: str
    value: Any
    ts: VectorClock
    sender_index: int
    origin: str


@dataclass(frozen=True)
class StrongUpdate:
    """A strong write with its position in the strong total order."""

    seqno: int
    var: str
    value: Any
    ts: VectorClock
    sender_index: int
    origin: str


class HybridMCS(VectorCausalMCS):
    """One MCS-process of the hybrid strong/weak protocol.

    Weak writes, reads and weak applies are the inherited vector-causal
    path; this class adds the sequenced strong writes.
    """

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._strong_buffer: dict[int, StrongUpdate] = {}
        self._next_strong = 0
        self._assign_strong = 0  # used by the sequencer only
        self._pending_strong_acks: list[Callable[[], None]] = []
        self.strong_apply_log: list[tuple[str, Any]] = []

    # -- roles -----------------------------------------------------------

    def _sequencer(self) -> str:
        return min(self.network.node_ids)

    # -- call handling ------------------------------------------------------

    def issue_write(
        self, var: str, value: Any, done: Callable[[], None], strong: bool = False
    ) -> None:
        if strong:
            self._handle_strong_write(var, value, done)
        else:
            self._handle_write(var, value, done)

    def _handle_strong_write(self, var: str, value: Any, done: Callable[[], None]) -> None:
        """Strong write: sequenced, causally timestamped, blocking."""
        self._clock = self._clock.increment(self.proc_index)
        request = StrongRequest(
            var=var, value=value, ts=self._clock,
            sender_index=self.proc_index, origin=self.name,
        )
        self._pending_strong_acks.append(done)
        if self._sequencer() == self.name:
            self._sequence(request)
        else:
            self.network.send(self.name, self._sequencer(), request)

    def state_key(self) -> tuple:
        return super().state_key() + (
            tuple(sorted(self._strong_buffer.items())),
            self._next_strong,
            self._assign_strong,
            callback_names(self._pending_strong_acks),
            tuple(self.strong_apply_log),
        )

    # -- sequencing ------------------------------------------------------------

    def _sequence(self, request: StrongRequest) -> None:
        update = StrongUpdate(
            seqno=self._assign_strong,
            var=request.var,
            value=request.value,
            ts=request.ts,
            sender_index=request.sender_index,
            origin=request.origin,
        )
        self._assign_strong += 1
        self.network.broadcast(self.name, update)
        self._strong_buffer[update.seqno] = update
        self._drain()

    # -- propagation ---------------------------------------------------------------

    def _on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, StrongRequest):
            self._sequence(payload)
        elif isinstance(payload, StrongUpdate):
            self._strong_buffer[payload.seqno] = payload
            self._drain()
        elif isinstance(payload, CausalUpdate):
            # A weak update may be what the next strong write waits for,
            # so its arrival runs the joint drain, not the weak one alone.
            self._holdback.add(payload)
            self._drain()
        else:
            super()._on_message(src, payload)

    def _drain(self) -> None:
        # Non-short-circuit ``|``: every round runs one weak pass and
        # then one strong step.
        apply = self._apply_with_upcalls
        while self._holdback.release(self._ready, apply) | self._release_strong():
            pass

    def _release_strong(self) -> bool:
        """Apply the next strong write if it is here and causally ready."""
        strong = self._strong_buffer.get(self._next_strong)
        if strong is None:
            return False
        own = strong.origin == self.name
        if not own and not self._ready(strong):
            return False
        del self._strong_buffer[self._next_strong]
        self._next_strong += 1
        self._apply_with_upcalls(strong, own_write=own)
        if own:
            self._pending_strong_acks.pop(0)()
        return True

    def _commit(self, update: CausalUpdate | StrongUpdate) -> None:
        if isinstance(update, StrongUpdate):
            # Merge, not increment: a writer's own strong write is
            # already in its clock.
            MCSProcess._commit(self, update)
            self._clock = self._clock.merge(update.ts)
            self.strong_apply_log.append((update.var, update.value))
        else:
            super()._commit(update)


HYBRID = register(
    ProtocolSpec(
        name="hybrid",
        factory=HybridMCS,
        causal_updating=True,
        consistency="causal",
    )
)

__all__ = ["HybridMCS", "HYBRID", "StrongRequest", "StrongUpdate"]
