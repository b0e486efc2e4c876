"""A parametrized protocol: sequential, causal, or cache consistency.

Reconstruction of the algorithm family in the paper's reference [6]
(Jiménez, Fernández, Cholvi, "A parametrized algorithm that implements
sequential, causal, and cache memory consistency", Euro PDP 2002): one
propagation-based protocol skeleton whose *apply discipline* and *write
blocking rule* are parameters:

* ``mode="causal"`` — writes respond immediately; updates carry a
  dependency vector (delivered-counts at the writer) and are applied when
  the dependency vector is satisfied. Equivalent in guarantees to
  :mod:`repro.protocols.vector` but implemented with per-sender sequence
  counters, giving the test suite a second, independently coded causal
  protocol (useful for mixed-protocol interconnection, E6/E7).
* ``mode="sequential"`` — writes are funnelled through a global sequencer
  and the writer blocks until its own write applies locally.
* ``mode="cache"`` — each variable has an *owner* (deterministic hash of
  the variable name) that sequences the writes to that variable only;
  replicas apply per-variable in owner order. This yields cache
  consistency (sequential per variable), which is *not* causal — included
  to demonstrate the limits of the interconnection theorem.

The causal and sequential modes satisfy Causal Updating (Property 1).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigurationError, ProtocolError
from repro.memory.interface import MCSProcess, callback_names
from repro.memory.operations import INITIAL_VALUE
from repro.protocols.base import ProtocolSpec, register
from repro.protocols.messages import SequencedUpdate, WriteRequest

MODES = ("causal", "sequential", "cache")


@dataclass(frozen=True)
class DepUpdate:
    """Causal-mode update: value + per-sender delivered-count dependencies."""

    var: str
    value: Any
    sender: str
    seqno: int
    deps: tuple[tuple[str, int], ...]


class ParametrizedMCS(MCSProcess):
    """One MCS-process of the parametrized protocol."""

    def __init__(self, mode: str = "causal", **kwargs: Any) -> None:
        if mode not in MODES:
            raise ConfigurationError(f"mode must be one of {MODES}, got {mode!r}")
        super().__init__(**kwargs)
        self.mode = mode
        self._store: dict[str, Any] = {}
        self.updates_applied = 0
        # causal mode state
        self._delivered: dict[str, int] = {}
        self._sent = 0
        self._dep_buffer: list[DepUpdate] = []
        # sequential / cache mode state
        self._assign: dict[str, int] = {}
        self._apply_next: dict[str, int] = {}
        self._reorder: dict[tuple[str, int], SequencedUpdate] = {}
        self._pending_writes: list[Callable[[], None]] = []

    # -- role selection -----------------------------------------------------

    def _global_sequencer(self) -> str:
        return min(self.network.node_ids)

    def _owner_of(self, var: str) -> str:
        """Deterministic owner of *var* in cache mode."""
        nodes = sorted(self.network.node_ids)
        return nodes[zlib.crc32(var.encode("utf-8")) % len(nodes)]

    # -- call handling ---------------------------------------------------------

    def _handle_write(self, var: str, value: Any, done: Callable[[], None]) -> None:
        if self.mode == "causal":
            self._write_causal(var, value, done)
        else:
            sequencer = self._global_sequencer() if self.mode == "sequential" else self._owner_of(var)
            # Both sequenced modes block the writer until its own write
            # returns in the (global or per-variable) order. Responding
            # early in cache mode would break read-your-writes: the local
            # replica only updates in owner order, so the writer could
            # read the initial value of a variable it just wrote — not
            # per-variable serializable.
            self._pending_writes.append(done)
            request = WriteRequest(var=var, value=value, origin=self.name)
            if sequencer == self.name:
                self._sequence(request, stream=self._stream_of(var))
            else:
                self.network.send(self.name, sequencer, request)

    def _handle_read(self, var: str, done: Callable[[Any], None]) -> None:
        done(self._store.get(var, INITIAL_VALUE))

    def local_value(self, var: str) -> Any:
        return self._store.get(var, INITIAL_VALUE)

    def state_key(self) -> tuple:
        return (
            tuple(sorted(self._store.items())),
            self.updates_applied,
            tuple(sorted(self._delivered.items())),
            self._sent,
            tuple(self._dep_buffer),
            tuple(sorted(self._assign.items())),
            tuple(sorted(self._apply_next.items())),
            tuple(sorted(self._reorder.items())),
            callback_names(self._pending_writes),
            tuple(self.missed_upcalls),
        )

    # -- causal mode ------------------------------------------------------------

    def _write_causal(self, var: str, value: Any, done: Callable[[], None]) -> None:
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
        self._apply_with_upcalls(
            var, value, lambda: self._store.__setitem__(var, value), own_write=True
        )
        done()
        self.network.broadcast(self.name, update)

    def _dep_ready(self, update: DepUpdate) -> bool:
        if update.seqno != self._delivered.get(update.sender, 0) + 1:
            return False
        return all(
            count <= self._delivered.get(sender, 0)
            for sender, count in update.deps
            if sender != update.sender
        )

    def _drain_causal(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for update in list(self._dep_buffer):
                if self._dep_ready(update):
                    self._dep_buffer.remove(update)
                    self._apply_dep(update)
                    progressed = True

    def _apply_dep(self, update: DepUpdate) -> None:
        def commit() -> None:
            self._store[update.var] = update.value
            self._delivered[update.sender] = update.seqno
            for sender, count in update.deps:
                if count > self._delivered.get(sender, 0):
                    raise ProtocolError(f"{self.name}: applied {update} before its deps")
            self.updates_applied += 1

        self._apply_with_upcalls(update.var, update.value, commit, own_write=False)

    # -- sequenced modes ----------------------------------------------------------

    def _stream_of(self, var: str) -> str:
        """Sequencing stream key: one global stream, or one per variable."""
        return "__global__" if self.mode == "sequential" else var

    def _sequence(self, request: WriteRequest, stream: str) -> None:
        seqno = self._assign.get(stream, 0)
        self._assign[stream] = seqno + 1
        update = SequencedUpdate(seqno=seqno, var=request.var, value=request.value, origin=request.origin)
        self.network.broadcast(self.name, update)
        self._deliver_sequenced(update)

    def _deliver_sequenced(self, update: SequencedUpdate) -> None:
        stream = self._stream_of(update.var)
        self._reorder[(stream, update.seqno)] = update
        while (stream, self._apply_next.get(stream, 0)) in self._reorder:
            seqno = self._apply_next.get(stream, 0)
            self._apply_sequenced(self._reorder.pop((stream, seqno)))
            self._apply_next[stream] = seqno + 1

    def _apply_sequenced(self, update: SequencedUpdate) -> None:
        own = update.origin == self.name

        def commit() -> None:
            self._store[update.var] = update.value
            self.updates_applied += 1

        self._apply_with_upcalls(update.var, update.value, commit, own_write=own)
        if own:
            self._pending_writes.pop(0)()

    # -- dispatch -----------------------------------------------------------------

    def _on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, DepUpdate):
            self._dep_buffer.append(payload)
            self._drain_causal()
        elif isinstance(payload, WriteRequest):
            self._sequence(payload, stream=self._stream_of(payload.var))
        elif isinstance(payload, SequencedUpdate):
            self._deliver_sequenced(payload)
        else:
            raise TypeError(f"{self.name}: unexpected payload {payload!r}")


PARAMETRIZED_CAUSAL = register(
    ProtocolSpec(
        name="parametrized-causal",
        factory=ParametrizedMCS,
        causal_updating=True,
        consistency="causal",
        options={"mode": "causal"},
    )
)

PARAMETRIZED_SEQUENTIAL = register(
    ProtocolSpec(
        name="parametrized-sequential",
        factory=ParametrizedMCS,
        causal_updating=True,
        consistency="sequential",
        options={"mode": "sequential"},
    )
)

PARAMETRIZED_CACHE = register(
    ProtocolSpec(
        name="parametrized-cache",
        factory=ParametrizedMCS,
        causal_updating=False,
        consistency="cache",
        options={"mode": "cache"},
    )
)

__all__ = [
    "ParametrizedMCS",
    "PARAMETRIZED_CAUSAL",
    "PARAMETRIZED_SEQUENTIAL",
    "PARAMETRIZED_CACHE",
    "MODES",
]
