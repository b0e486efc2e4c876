"""Partially replicated causal memory (the paper's reference [8] class).

Raynal and Ahamad ("Exploiting write semantics in implementing partially
replicated causal objects", Euromicro PDP 1998) study causal memory where
each process replicates only *some* variables. This module implements a
write-notice variant of that idea:

* every variable has a *replica set* of ``replication_factor`` holders,
  chosen deterministically from the application MCS-processes;
* a write sends the full value to the holders and a small *write notice*
  (timestamp only) to everyone else, so causal gating still works with
  plain per-sender counters — the bandwidth saving is in values, not
  metadata (the TreadMarks-style trade);
* holders apply value updates in causal order (exactly like the vector
  protocol); non-holders apply notices, which advance their clock only;
* a read of a non-held variable is a *remote read*: the requester sends
  its causal context to a deterministic holder, which replies once it has
  applied everything the requester has seen. Remote reads therefore block
  — the first protocol in this library with non-zero read response times.

Interconnection requirement (§2 of the paper): the MCS-process attached
to an IS-process must hold a replica of *every* variable. The bridge
names IS-attached MCS nodes with a ``~isp`` marker; this protocol treats
those nodes as holders of everything. Replica applies are causally gated,
so the protocol satisfies Causal Updating (IS-protocol 1 suffices).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.memory.interface import MCSProcess, callback_names
from repro.memory.operations import INITIAL_VALUE
from repro.protocols.base import ProtocolSpec, register
from repro.protocols.holdback import CausalHoldBack
from repro.sim.clock import VectorClock


@dataclass(frozen=True)
class PartialUpdate:
    """Full value propagation to the holders of a variable."""

    var: str
    value: Any
    ts: VectorClock
    sender_index: int


@dataclass(frozen=True)
class WriteNotice:
    """Timestamp-only propagation to non-holders (keeps gating sound)."""

    var: str
    ts: VectorClock
    sender_index: int


@dataclass(frozen=True)
class ReadRequest:
    """Remote read: requester's causal context travels with the request."""

    request_id: int
    var: str
    ctx: VectorClock
    requester: str


@dataclass(frozen=True)
class ReadReply:
    request_id: int
    var: str
    value: Any
    ts: VectorClock


class PartialReplicationMCS(MCSProcess):
    """One MCS-process of the partial-replication causal protocol."""

    def __init__(self, replication_factor: int = 2, **kwargs: Any) -> None:
        if replication_factor < 1:
            raise ConfigurationError(
                f"replication_factor must be >= 1, got {replication_factor}"
            )
        super().__init__(**kwargs)
        self.replication_factor = replication_factor
        self._applied = VectorClock()  # gating clock: locally applied writes
        self._extra = VectorClock()  # causal context gained via remote reads
        self._holdback = CausalHoldBack()
        self._pending_reads: dict[int, Callable[[Any], None]] = {}
        self._blocked_requests: list[ReadRequest] = []
        self.notices_applied = 0
        self.remote_reads = 0

    # -- replica placement ---------------------------------------------------

    def _all_nodes(self) -> list[str]:
        return sorted(self.network.node_ids)

    @staticmethod
    def _is_interconnect_node(node_id: str) -> bool:
        return "~isp" in node_id

    def holders_of(self, var: str) -> list[str]:
        """Replica set of *var*: k application nodes (deterministic rotation)
        plus every IS-attached node (they must hold everything, §2)."""
        nodes = self._all_nodes()
        app_nodes = [node for node in nodes if not self._is_interconnect_node(node)]
        isp_nodes = [node for node in nodes if self._is_interconnect_node(node)]
        if not app_nodes:
            return isp_nodes
        k = min(self.replication_factor, len(app_nodes))
        start = zlib.crc32(var.encode("utf-8")) % len(app_nodes)
        chosen = [app_nodes[(start + offset) % len(app_nodes)] for offset in range(k)]
        return chosen + isp_nodes

    def holds(self, var: str) -> bool:
        return self.name in self.holders_of(var)

    def _primary_holder(self, var: str) -> str:
        return self.holders_of(var)[0]

    # -- causal context -----------------------------------------------------------

    @property
    def _ctx(self) -> VectorClock:
        return self._applied.merge(self._extra)

    def state_key(self) -> tuple:
        return self._replica_key() + (
            self._applied,
            self._extra,
            self._holdback.state_key(),
            tuple(sorted(self._pending_reads)),
            callback_names(done for _, done in sorted(self._pending_reads.items())),
            tuple(self._blocked_requests),
            self.notices_applied,
            self.remote_reads,
        )

    # -- call handling ---------------------------------------------------------------

    def _handle_write(self, var: str, value: Any, done: Callable[[], None]) -> None:
        ts = self._ctx.increment(self.proc_index)
        self._applied = self._applied.merge(ts)
        update = PartialUpdate(var, value, ts, self.proc_index)
        if self.holds(var):
            self._apply_with_upcalls(update, own_write=True)
        done()
        holders = set(self.holders_of(var))
        for node in self._all_nodes():
            if node == self.name:
                continue
            if node in holders:
                self.network.send(self.name, node, update)
            else:
                self.network.send(self.name, node, WriteNotice(var, ts, self.proc_index))
        self._unblock_requests()

    def _handle_read(self, var: str, done: Callable[[Any], None]) -> None:
        if self.holds(var):
            value, ts = self._store.get(var, (INITIAL_VALUE, VectorClock()))
            self._extra = self._extra.merge(ts)
            done(value)
            return
        self.remote_reads += 1
        request = ReadRequest(
            request_id=self.remote_reads,
            var=var,
            ctx=self._ctx,
            requester=self.name,
        )
        self._pending_reads[request.request_id] = done
        self.network.send(self.name, self._primary_holder(var), request)

    def local_value(self, var: str) -> Any:
        return self._store.get(var, (INITIAL_VALUE, VectorClock()))[0]

    @property
    def clock(self) -> VectorClock:
        return self._applied

    # -- propagation ---------------------------------------------------------------------

    def _on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, (PartialUpdate, WriteNotice)):
            self._holdback.arrive(payload, self._ready, self._apply)
            self._unblock_requests()
        elif isinstance(payload, ReadRequest):
            self._blocked_requests.append(payload)
            self._unblock_requests()
        elif isinstance(payload, ReadReply):
            self._extra = self._extra.merge(payload.ts)
            self._pending_reads.pop(payload.request_id)(payload.value)
        else:
            raise TypeError(f"{self.name}: unexpected payload {payload!r}")

    def _ready(self, message: PartialUpdate | WriteNotice) -> bool:
        return message.ts.causally_ready(self._applied, message.sender_index)

    def _apply(self, message: PartialUpdate | WriteNotice) -> None:
        if isinstance(message, PartialUpdate):
            self._apply_with_upcalls(message)
        else:
            self._applied = self._applied.merge(message.ts)
            self.notices_applied += 1

    def _commit(self, update: PartialUpdate) -> None:
        # The entry keeps the timestamp: a read merges it into the
        # reader's causal context.
        self._store[update.var] = (update.value, update.ts)
        self._applied = self._applied.merge(update.ts)
        self.updates_applied += 1

    # -- remote read service -----------------------------------------------------------------

    def _unblock_requests(self) -> None:
        """Serve queued remote reads whose causal context we have caught
        up with (the reply must not be older than what the reader knows)."""
        still_blocked = []
        for request in self._blocked_requests:
            if self._applied.dominates(request.ctx):
                value, ts = self._store.get(request.var, (INITIAL_VALUE, VectorClock()))
                reply = ReadReply(request.request_id, request.var, value, ts)
                self.network.send(self.name, request.requester, reply)
            else:
                still_blocked.append(request)
        self._blocked_requests = still_blocked


PARTIAL_CAUSAL = register(
    ProtocolSpec(
        name="partial-causal",
        factory=PartialReplicationMCS,
        causal_updating=True,
        consistency="causal",
        options={"replication_factor": 2},
    )
)

PARTIAL_CAUSAL_SINGLE = register(
    ProtocolSpec(
        name="partial-causal-single",
        factory=PartialReplicationMCS,
        causal_updating=True,
        consistency="causal",
        options={"replication_factor": 1},
    )
)

__all__ = [
    "PartialReplicationMCS",
    "PARTIAL_CAUSAL",
    "PARTIAL_CAUSAL_SINGLE",
    "PartialUpdate",
    "WriteNotice",
    "ReadRequest",
    "ReadReply",
]
