"""Sequentially consistent DSM: the Attiya–Welch local-read algorithm.

Attiya and Welch ("Sequential consistency versus linearizability", ACM
TOCS 12(2), 1994 — the paper's reference [3]) implement sequential
consistency with fast local reads: writes are disseminated through a
total-order broadcast and the writer blocks until its own write comes back
in the total order; reads return the local replica immediately.

The total order here comes from a sequencer — the MCS-process with the
lexicographically smallest node id acts as sequencer, assigning a global
sequence number to each write and broadcasting it; the shared
:class:`~repro.protocols.sequencer.Sequencer` applies them in order.
:class:`CacheMCS` orders each variable's writes at its own owner instead:
cache consistency, which is *not* causal (see :mod:`.parametrized`).

Sequential consistency implies causal consistency, so per §1.1 of the
paper a sequential system can be interconnected with a causal one and the
result is causal (though usually no longer sequential) — experiment E10.
The sequential protocol satisfies Causal Updating (Property 1): the
sequencer order is causal-order-consistent, and replicas apply in it.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Optional

from repro.errors import ProtocolError
from repro.memory.interface import MCSProcess
from repro.protocols.base import ProtocolSpec, register
from repro.protocols.messages import SequencedUpdate, WriteRequest
from repro.protocols.sequencer import Sequencer


class SequentialMCS(MCSProcess):
    """One MCS-process of the sequencer-based sequential protocol."""

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._sequencer = Sequencer(self.name)

    # -- roles ---------------------------------------------------------------

    def _sequencer_of(self, var: str) -> str:
        """The node that orders the writes to *var*: the smallest node id."""
        return min(self.network.node_ids)

    def _stream_of(self, var: str) -> Optional[str]:
        """The order the writes to *var* belong to: one for every variable."""
        return None

    # -- call handling ---------------------------------------------------------

    def _handle_write(self, var: str, value: Any, done: Callable[[], None]) -> None:
        # The response is deferred until our own write returns in the
        # total order (slow writes, fast reads).
        self._sequencer.wait(var, value, done)
        request = WriteRequest(var=var, value=value, origin=self.name)
        sequencer = self._sequencer_of(var)
        if sequencer == self.name:
            self._sequence(request)
        else:
            self.network.send(self.name, sequencer, request)

    def state_key(self) -> tuple:
        return self._replica_key() + self._sequencer.state_key()

    # -- sequencing -------------------------------------------------------------

    def _sequence(self, request: WriteRequest) -> None:
        stream = self._stream_of(request.var)
        update = SequencedUpdate(seqno=self._sequencer.assign(stream), **vars(request))
        self.network.broadcast(self.name, update)
        self._deliver(update)  # loopback: the sequencer applies locally

    def _on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, WriteRequest):
            if self._sequencer_of(payload.var) != self.name:
                raise ProtocolError(f"{self.name} received a WriteRequest but is not sequencer")
            self._sequence(payload)
        elif isinstance(payload, SequencedUpdate):
            self._deliver(payload)
        else:
            raise TypeError(f"{self.name}: unexpected payload {payload!r}")

    def _deliver(self, update: SequencedUpdate) -> None:
        stream = self._stream_of(update.var)
        self._sequencer.hold(stream, update)
        self._sequencer.release(stream, lambda _: True, self._apply_with_upcalls)


class CacheMCS(SequentialMCS):
    """One MCS-process of the cache protocol: per-variable owners and streams.

    Writers block here too: the replica updates only in owner order, so an
    early response would let a writer read back the value it overwrote.
    """

    def _sequencer_of(self, var: str) -> str:
        nodes = sorted(self.network.node_ids)
        return nodes[zlib.crc32(var.encode("utf-8")) % len(nodes)]

    def _stream_of(self, var: str) -> Optional[str]:
        return var


SEQUENTIAL = register(
    ProtocolSpec(
        name="aw-sequential",
        factory=SequentialMCS,
        causal_updating=True,
        consistency="sequential",
    )
)

__all__ = ["SequentialMCS", "CacheMCS", "SEQUENTIAL"]
