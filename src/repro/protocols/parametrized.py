"""A parametrized protocol family: sequential, causal, or cache consistency.

Reconstruction of the algorithm family in the paper's reference [6]
(Jiménez, Fernández, Cholvi, "A parametrized algorithm that implements
sequential, causal, and cache memory consistency", Euro PDP 2002): one
propagation-based skeleton whose *apply discipline* and *write blocking
rule* are parameters. Registered as three protocols:

* ``parametrized-causal`` — :class:`ParametrizedMCS`: writes respond
  immediately; updates carry a dependency vector (delivered-counts at the
  writer) and are applied when the dependency vector is satisfied.
  Equivalent in guarantees to :mod:`repro.protocols.vector` but
  implemented with per-sender sequence counters, giving the test suite a
  second, independently coded causal protocol (useful for
  mixed-protocol interconnection, E6/E7).
* ``parametrized-sequential`` — :class:`~repro.protocols.sequential.SequentialMCS`:
  writes go through a global sequencer and block until they apply locally.
* ``parametrized-cache`` — :class:`~repro.protocols.sequential.CacheMCS`:
  each variable's owner sequences that variable's writes only. Cache
  consistency (sequential per variable) is *not* causal — included to
  demonstrate the limits of the interconnection theorem.

The causal and sequential members satisfy Causal Updating (Property 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ProtocolError
from repro.memory.interface import MCSProcess
from repro.protocols.base import ProtocolSpec, register
from repro.protocols.holdback import CausalHoldBack
from repro.protocols.sequential import CacheMCS, SequentialMCS


@dataclass(frozen=True)
class DepUpdate:
    """Causal update: value + per-sender delivered-count dependencies."""

    var: str
    value: Any
    sender: str
    seqno: int
    deps: tuple[tuple[str, int], ...]


class ParametrizedMCS(MCSProcess):
    """One MCS-process of the dependency-vector causal protocol."""

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._delivered: dict[str, int] = {}
        self._sent = 0
        self._holdback = CausalHoldBack()

    # -- call handling ---------------------------------------------------------

    def _handle_write(self, var: str, value: Any, done: Callable[[], None]) -> None:
        self._sent += 1
        # Count the write in our own delivered vector: a peer's later
        # write may list it as a dependency, and that dependency must be
        # satisfiable *here* too — otherwise updates causally after our
        # own writes would gate forever at this very replica (the
        # IS-process's MCS hits exactly this: everything it propagates
        # inward is its own write).
        self._delivered[self.name] = self._sent
        deps = tuple(sorted(self._delivered.items()))
        update = DepUpdate(var=var, value=value, sender=self.name, seqno=self._sent, deps=deps)
        self._write_own(var, value)
        done()
        self.network.broadcast(self.name, update)

    def state_key(self) -> tuple:
        return self._replica_key() + (
            tuple(sorted(self._delivered.items())),
            self._sent,
            self._holdback.state_key(),
        )

    # -- propagation ------------------------------------------------------------

    def _on_message(self, src: str, payload: Any) -> None:
        if not isinstance(payload, DepUpdate):
            raise TypeError(f"{self.name}: unexpected payload {payload!r}")
        self._holdback.arrive(payload, self._dep_ready, self._apply_with_upcalls)

    def _dep_ready(self, update: DepUpdate) -> bool:
        if update.seqno != self._delivered.get(update.sender, 0) + 1:
            return False
        return all(
            count <= self._delivered.get(sender, 0)
            for sender, count in update.deps
            if sender != update.sender
        )

    def _commit(self, update: DepUpdate) -> None:
        super()._commit(update)
        self._delivered[update.sender] = update.seqno
        for sender, count in update.deps:
            if count > self._delivered.get(sender, 0):
                raise ProtocolError(f"{self.name}: applied {update} before its deps")


PARAMETRIZED_CAUSAL = register(
    ProtocolSpec(
        name="parametrized-causal",
        factory=ParametrizedMCS,
        causal_updating=True,
        consistency="causal",
    )
)

PARAMETRIZED_SEQUENTIAL = register(
    ProtocolSpec(
        name="parametrized-sequential",
        factory=SequentialMCS,
        causal_updating=True,
        consistency="sequential",
    )
)

PARAMETRIZED_CACHE = register(
    ProtocolSpec(
        name="parametrized-cache",
        factory=CacheMCS,
        causal_updating=False,
        consistency="cache",
    )
)

__all__ = [
    "ParametrizedMCS",
    "PARAMETRIZED_CAUSAL",
    "PARAMETRIZED_SEQUENTIAL",
    "PARAMETRIZED_CACHE",
]
