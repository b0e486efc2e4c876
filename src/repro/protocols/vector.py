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
from repro.sim.clock import VectorClock, advance, causally_ready, freeze


class VectorCausalMCS(MCSProcess):
    """One MCS-process of the vector-clock causal protocol."""

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        #: The applied clock, as counters (:mod:`repro.sim.clock`): an
        #: apply advances it in place; only a write freezes a timestamp.
        self._clock: list[int] = []
        self._holdback = CausalHoldBack()

    # -- call handling -----------------------------------------------------

    def _handle_write(self, var: str, value: Any, done: Callable[[], None]) -> None:
        advance(self._clock, self.proc_index)
        update = CausalUpdate(
            var=var,
            value=value,
            ts=freeze(self._clock),
            sender_index=self.proc_index,
            sender_name=self.name,
        )
        self._write_own(var, value)
        done()
        self.network.broadcast(self.name, update)

    @property
    def clock(self) -> VectorClock:
        """The applied clock as a timestamp (for tracers and tests)."""
        return freeze(self._clock)

    def state_key(self) -> tuple:
        # The counters have no trailing zero, so equal clocks key equal.
        return self._replica_key() + (tuple(self._clock), self._holdback.state_key())

    # -- update propagation -------------------------------------------------

    def _on_message(self, src: str, payload: Any) -> None:
        if not isinstance(payload, CausalUpdate):
            raise TypeError(f"{self.name}: unexpected payload {payload!r}")
        # CausalHoldBack.arrive with the readiness test inlined: an update
        # that finds the buffer empty and is ready builds no bound methods.
        holdback = self._holdback
        if holdback._buffer or not causally_ready(payload.ts, payload.sender_index, self._clock):
            holdback.hold(payload, self._ready, self._apply_with_upcalls)
        else:
            holdback.passed()
            self._apply_with_upcalls(payload)

    def _ready(self, update: CausalUpdate) -> bool:
        return causally_ready(update.ts, update.sender_index, self._clock)

    def _commit(self, update: CausalUpdate) -> None:
        MCSProcess._commit(self, update)
        # A causally ready update is one write ahead of the clock at its
        # sender's entry and nowhere else: merging is incrementing.
        advance(self._clock, update.sender_index)


VECTOR_CAUSAL = register(
    ProtocolSpec(
        name="vector-causal",
        factory=VectorCausalMCS,
        causal_updating=True,
        consistency="causal",
    )
)

__all__ = ["VectorCausalMCS", "VECTOR_CAUSAL"]
