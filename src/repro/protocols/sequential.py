"""Sequentially consistent DSM: the Attiya–Welch local-read algorithm.

Attiya and Welch ("Sequential consistency versus linearizability", ACM
TOCS 12(2), 1994 — the paper's reference [3]) implement sequential
consistency with fast local reads: writes are disseminated through a
total-order broadcast and the writer blocks until its own write comes back
in the total order; reads return the local replica immediately.

The total order here comes from a sequencer — the MCS-process with the
lexicographically smallest node id acts as sequencer, assigning a global
sequence number to each write and broadcasting it. FIFO channels then
deliver updates in sequence order; a small reorder buffer covers the
general case.

Sequential consistency implies causal consistency, so per §1.1 of the
paper a sequential system can be interconnected with a causal one and the
result is causal (though usually no longer sequential) — experiment E10.
The protocol satisfies Causal Updating (Property 1): the sequencer order
is causal-order-consistent, and replicas apply in sequencer order.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import ProtocolError
from repro.memory.interface import MCSProcess, callback_names
from repro.memory.operations import INITIAL_VALUE
from repro.protocols.base import ProtocolSpec, register
from repro.protocols.messages import SequencedUpdate, WriteRequest


class SequentialMCS(MCSProcess):
    """One MCS-process of the sequencer-based sequential protocol."""

    def __init__(self, sequencer: Optional[str] = None, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._store: dict[str, Any] = {}
        self._next_assign = 0  # used only when this node is the sequencer
        self._next_apply = 0
        self._reorder: dict[int, SequencedUpdate] = {}
        self._pending_writes: list[tuple[str, Any, Callable[[], None]]] = []
        self._sequencer_override = sequencer
        self.updates_applied = 0

    # -- roles ---------------------------------------------------------------

    @property
    def sequencer_name(self) -> str:
        """The node acting as sequencer (stable once the system is built)."""
        if self._sequencer_override is not None:
            return self._sequencer_override
        return min(self.network.node_ids)

    @property
    def is_sequencer(self) -> bool:
        return self.name == self.sequencer_name

    # -- call handling ---------------------------------------------------------

    def _handle_write(self, var: str, value: Any, done: Callable[[], None]) -> None:
        # The response is deferred until our own write returns in the
        # total order (slow writes, fast reads).
        self._pending_writes.append((var, value, done))
        request = WriteRequest(var=var, value=value, origin=self.name)
        if self.is_sequencer:
            self._sequence(request)
        else:
            self.network.send(self.name, self.sequencer_name, request)

    def _handle_read(self, var: str, done: Callable[[Any], None]) -> None:
        done(self._store.get(var, INITIAL_VALUE))

    def local_value(self, var: str) -> Any:
        return self._store.get(var, INITIAL_VALUE)

    def state_key(self) -> tuple:
        return (
            tuple(sorted(self._store.items())),
            self._next_assign,
            self._next_apply,
            tuple(sorted(self._reorder.items())),
            tuple((var, value) for var, value, _ in self._pending_writes),
            callback_names(done for _, _, done in self._pending_writes),
            self.updates_applied,
            tuple(self.missed_upcalls),
        )

    # -- sequencing -------------------------------------------------------------

    def _sequence(self, request: WriteRequest) -> None:
        update = SequencedUpdate(
            seqno=self._next_assign,
            var=request.var,
            value=request.value,
            origin=request.origin,
        )
        self._next_assign += 1
        self.network.broadcast(self.name, update)
        self._deliver(update)  # loopback: the sequencer applies locally

    def _on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, WriteRequest):
            if not self.is_sequencer:
                raise ProtocolError(f"{self.name} received a WriteRequest but is not sequencer")
            self._sequence(payload)
        elif isinstance(payload, SequencedUpdate):
            self._deliver(payload)
        else:
            raise TypeError(f"{self.name}: unexpected payload {payload!r}")

    def _deliver(self, update: SequencedUpdate) -> None:
        self._reorder[update.seqno] = update
        while self._next_apply in self._reorder:
            self._apply(self._reorder.pop(self._next_apply))
            self._next_apply += 1

    def _apply(self, update: SequencedUpdate) -> None:
        own = update.origin == self.name

        def commit() -> None:
            self._store[update.var] = update.value
            self.updates_applied += 1

        self._apply_with_upcalls(update.var, update.value, commit, own_write=own)
        if own:
            var, value, done = self._pending_writes.pop(0)
            if (var, value) != (update.var, update.value):
                raise ProtocolError(
                    f"{self.name}: writes acknowledged out of order "
                    f"({var!r}={value!r} vs {update.var!r}={update.value!r})"
                )
            done()


SEQUENTIAL = register(
    ProtocolSpec(
        name="aw-sequential",
        factory=SequentialMCS,
        causal_updating=True,
        consistency="sequential",
    )
)

__all__ = ["SequentialMCS", "SEQUENTIAL"]
