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

from repro.memory.interface import MCSProcess
from repro.protocols.base import ProtocolSpec, register
from repro.protocols.messages import CausalUpdate
from repro.protocols.sequencer import Sequencer
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
        self._sequencer = Sequencer(self.name)
        self.strong_apply_log: list[tuple[str, Any]] = []

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
        self._sequencer.wait(var, value, done)
        sequencer = min(self.network.node_ids)
        if sequencer == self.name:
            self._sequence(request)
        else:
            self.network.send(self.name, sequencer, request)

    def state_key(self) -> tuple:
        return super().state_key() + self._sequencer.state_key() + (tuple(self.strong_apply_log),)

    # -- sequencing ------------------------------------------------------------

    def _sequence(self, request: StrongRequest) -> None:
        update = StrongUpdate(seqno=self._sequencer.assign(None), **vars(request))
        self.network.broadcast(self.name, update)
        self._sequencer.hold(None, update)
        self._drain()

    # -- propagation ---------------------------------------------------------------

    def _on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, StrongRequest):
            self._sequence(payload)
        elif isinstance(payload, StrongUpdate):
            self._sequencer.hold(None, payload)
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
        # then the strong writes that are next in order and ready.
        apply = self._apply_with_upcalls
        while self._holdback.release(self._ready, apply) | self._sequencer.release(
            None, self._strong_ready, apply
        ):
            pass

    def _strong_ready(self, strong: StrongUpdate) -> bool:
        # A writer's own strong write is already in its clock.
        return strong.origin == self.name or self._ready(strong)

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
