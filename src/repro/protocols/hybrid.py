"""Hybrid consistency: per-operation strong and weak writes.

Beyond the paper, within its world. The paper notes (§1.1) that its
interconnection results apply to models stronger than causal too; modern
geo-replicated stores go the other way and mix strengths *per operation*
(RedBlue consistency, and the hybrid consistency of Attiya–Friedman).
This protocol realises that mix on the library's substrate:

* **weak writes** behave exactly like the vector-clock causal protocol —
  immediate response, vector-timestamped broadcast, causally gated apply;
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
from repro.memory.operations import INITIAL_VALUE
from repro.protocols.base import ProtocolSpec, register
from repro.protocols.messages import CausalUpdate
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


class HybridMCS(MCSProcess):
    """One MCS-process of the hybrid strong/weak protocol."""

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._clock = VectorClock()
        self._store: dict[str, Any] = {}
        self._weak_buffer: list[CausalUpdate] = []
        self._strong_buffer: dict[int, StrongUpdate] = {}
        self._next_strong = 0
        self._assign_strong = 0  # used by the sequencer only
        self._pending_strong_acks: list[Callable[[], None]] = []
        self.strong_apply_log: list[tuple[str, Any]] = []
        self.updates_applied = 0

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

    def _handle_write(self, var: str, value: Any, done: Callable[[], None]) -> None:
        """Weak write: the vector-causal fast path."""
        self._clock = self._clock.increment(self.proc_index)
        update = CausalUpdate(
            var=var, value=value, ts=self._clock,
            sender_index=self.proc_index, sender_name=self.name,
        )
        self._apply_with_upcalls(
            var, value, lambda: self._store.__setitem__(var, value), own_write=True
        )
        done()
        self.network.broadcast(self.name, update)

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

    def _handle_read(self, var: str, done: Callable[[Any], None]) -> None:
        done(self._store.get(var, INITIAL_VALUE))

    def local_value(self, var: str) -> Any:
        return self._store.get(var, INITIAL_VALUE)

    def state_key(self) -> tuple:
        return (
            self._clock,
            tuple(sorted(self._store.items())),
            tuple(self._weak_buffer),
            tuple(sorted(self._strong_buffer.items())),
            self._next_strong,
            self._assign_strong,
            callback_names(self._pending_strong_acks),
            tuple(self.strong_apply_log),
            self.updates_applied,
            tuple(self.missed_upcalls),
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
        if isinstance(payload, CausalUpdate):
            self._weak_buffer.append(payload)
        elif isinstance(payload, StrongRequest):
            self._sequence(payload)
            return
        elif isinstance(payload, StrongUpdate):
            self._strong_buffer[payload.seqno] = payload
        else:
            raise TypeError(f"{self.name}: unexpected payload {payload!r}")
        self._drain()

    def _drain(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for update in list(self._weak_buffer):
                if update.ts.causally_ready(self._clock, update.sender_index):
                    self._weak_buffer.remove(update)
                    self._apply_weak(update)
                    progressed = True
            strong = self._strong_buffer.get(self._next_strong)
            if strong is not None:
                own = strong.origin == self.name
                ready = (
                    strong.ts.causally_ready(self._clock, strong.sender_index)
                    if not own
                    else True
                )
                if ready:
                    del self._strong_buffer[self._next_strong]
                    self._next_strong += 1
                    self._apply_strong(strong, own)
                    progressed = True

    def _apply_weak(self, update: CausalUpdate) -> None:
        def commit() -> None:
            self._store[update.var] = update.value
            self._clock = self._clock.merge(update.ts)
            self.updates_applied += 1

        self._apply_with_upcalls(update.var, update.value, commit, own_write=False)

    def _apply_strong(self, update: StrongUpdate, own: bool) -> None:
        def commit() -> None:
            self._store[update.var] = update.value
            self._clock = self._clock.merge(update.ts)
            self.strong_apply_log.append((update.var, update.value))
            self.updates_applied += 1

        self._apply_with_upcalls(update.var, update.value, commit, own_write=own)
        if own:
            self._pending_strong_acks.pop(0)()


HYBRID = register(
    ProtocolSpec(
        name="hybrid",
        factory=HybridMCS,
        causal_updating=True,
        consistency="causal",
    )
)

__all__ = ["HybridMCS", "HYBRID", "StrongRequest", "StrongUpdate"]
