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
from repro.memory.operations import INITIAL_VALUE
from repro.protocols.base import ProtocolSpec, register
from repro.protocols.messages import CausalUpdate
from repro.sim.clock import VectorClock


class VectorCausalMCS(MCSProcess):
    """One MCS-process of the vector-clock causal protocol."""

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._clock = VectorClock()
        self._store: dict[str, Any] = {}
        self._buffer: list[CausalUpdate] = []
        self.updates_applied = 0
        self.max_buffered = 0

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
        self._apply_with_upcalls(
            var, value, lambda: self._store.__setitem__(var, value), own_write=True
        )
        done()
        self.network.broadcast(self.name, update)

    def _handle_read(self, var: str, done: Callable[[Any], None]) -> None:
        done(self._store.get(var, INITIAL_VALUE))

    def local_value(self, var: str) -> Any:
        return self._store.get(var, INITIAL_VALUE)

    @property
    def clock(self) -> VectorClock:
        return self._clock

    def state_key(self) -> tuple:
        return (
            self._clock,
            tuple(sorted(self._store.items())),
            tuple(self._buffer),
            self.updates_applied,
            self.max_buffered,
            tuple(self.missed_upcalls),
        )

    # -- update propagation -------------------------------------------------

    def _on_message(self, src: str, payload: Any) -> None:
        if not isinstance(payload, CausalUpdate):
            raise TypeError(f"{self.name}: unexpected payload {payload!r}")
        self._buffer.append(payload)
        self.max_buffered = max(self.max_buffered, len(self._buffer))
        self._drain()

    def _causally_ready(self, update: CausalUpdate) -> bool:
        """True when every write *update* depends on has been applied here.

        Ready iff the sender's entry is the next expected one and no other
        entry of the timestamp is ahead of our clock.
        """
        ts, sender = update.ts, update.sender_index
        if ts.get(sender) != self._clock.get(sender) + 1:
            return False
        return all(
            ts.get(proc) <= self._clock.get(proc) for proc in ts.processes() if proc != sender
        )

    def _drain(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for update in list(self._buffer):
                if self._causally_ready(update):
                    self._buffer.remove(update)
                    self._apply(update)
                    progressed = True

    def _apply(self, update: CausalUpdate) -> None:
        def commit() -> None:
            self._store[update.var] = update.value
            self._clock = self._clock.merge(update.ts)
            self.updates_applied += 1

        self._apply_with_upcalls(update.var, update.value, commit, own_write=False)


VECTOR_CAUSAL = register(
    ProtocolSpec(
        name="vector-causal",
        factory=VectorCausalMCS,
        causal_updating=True,
        consistency="causal",
    )
)

__all__ = ["VectorCausalMCS", "VECTOR_CAUSAL"]
