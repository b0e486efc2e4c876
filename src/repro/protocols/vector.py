"""Propagation-based causal memory with vector clocks.

This is the classic full-replication causal memory protocol in the style
of Ahamad, Neiger, Burns, Kohli and Hutto ("Causal memory: definitions,
implementation and programming", Distributed Computing 9(1), 1995 — the
paper's reference [2]):

* every MCS-process keeps a replica of every variable;
* a write is applied locally at once (the writer's response is immediate)
  and broadcast to all other MCS-processes, vector-timestamped;
* a received update is buffered until it is *causally ready* — all writes
  it causally depends on have been applied — and then applied.

Because updates are applied in causal order at every replica, the protocol
satisfies the paper's Causal Updating Property (Property 1), so it pairs
with IS-protocol 1 (no ``pre_update`` upcalls needed).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.memory.interface import MCSProcess
from repro.protocols.base import ProtocolSpec, register
from repro.protocols.holdback import CausalHoldBack
from repro.protocols.messages import CausalUpdate
from repro.sim.clock import VectorClock


class VectorCausalMCS(MCSProcess):
    """One MCS-process of the vector-clock causal protocol."""

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._clock = VectorClock()
        self._holdback = CausalHoldBack()

    # -- call handling -----------------------------------------------------

    def _handle_write(self, var: str, value: Any, done: Callable[[], None]) -> None:
        self._clock = self._clock.increment(self.proc_index)
        update = CausalUpdate(
            var=var,
            value=value,
            ts=self._clock,
            sender_index=self.proc_index,
            sender_name=self.name,
        )
        self._write_own(var, value)
        done()
        self.network.broadcast(self.name, update)

    @property
    def clock(self) -> VectorClock:
        return self._clock

    def state_key(self) -> tuple:
        return self._replica_key() + (self._clock, self._holdback.state_key())

    # -- update propagation -------------------------------------------------

    def _on_message(self, src: str, payload: Any) -> None:
        if not isinstance(payload, CausalUpdate):
            raise TypeError(f"{self.name}: unexpected payload {payload!r}")
        self._holdback.arrive(payload, self._ready, self._apply_with_upcalls)

    def _ready(self, update: CausalUpdate) -> bool:
        return update.ts.causally_ready(self._clock, update.sender_index)

    def _commit(self, update: CausalUpdate) -> None:
        super()._commit(update)
        # A causally ready update is one write ahead of the clock at its
        # sender's entry and nowhere else: merging is incrementing.
        self._clock = self._clock.increment(update.sender_index)


VECTOR_CAUSAL = register(
    ProtocolSpec(
        name="vector-causal",
        factory=VectorCausalMCS,
        causal_updating=True,
        consistency="causal",
    )
)

__all__ = ["VectorCausalMCS", "VECTOR_CAUSAL"]
