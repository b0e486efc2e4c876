"""IS-processes: the interconnecting processes of §3.

An IS-process ``isp^k`` is a special application process attached to an
exclusive MCS-process of system S^k. It runs up to three tasks:

* ``Propagate_out(x, v)`` — on a ``post_update(x, v)`` upcall: issue a
  read of ``x`` (which must return ``v``, condition (c)) and send the pair
  ``<x, v>`` to the peer IS-process(es) over the reliable FIFO channel.
* ``Propagate_in(y, u)`` — on receipt of a pair ``<y, u>``: issue a write
  ``w(y)u`` to the local MCS-process, causally propagating the value
  inside S^k. Pairs are written strictly one at a time, in receipt order.
* ``Pre_Propagate_out(x)`` — IS-protocol 2 only: on a ``pre_update(x)``
  upcall, issue a read of ``x`` returning the *old* value. This read is
  what forces non-causal-updating MCS protocols to apply updates at this
  replica in causal order (Lemma 1).

The IS-process records every operation it issues into the shared history
recorder with ``is_interconnect=True``: those operations belong to the
per-system computation alpha^k but are excluded from the global
computation alpha^T (§4).

A *shared* IS-process may serve several interconnection links of one
system (the paper notes "one IS-process could belong to several systems";
the §6 message-count model assumes one IS-process per system). Because its
own writes generate no upcalls, a shared IS-process explicitly forwards
each received pair to its other peers, preserving per-link FIFO order.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import ProtocolError
from repro.memory.interface import MCSProcess, UpcallHandler
from repro.memory.operations import OpKind
from repro.memory.recorder import HistoryRecorder
from repro.sim.channel import ReliableFifoChannel
from repro.sim.core import Simulator
from repro.sim.process import SimProcess


@dataclass(frozen=True)
class PropagatedPair:
    """The ``<x, v>`` message exchanged between IS-processes."""

    var: str
    value: Any


@dataclass
class _PeerLink:
    peer_name: str
    channel: ReliableFifoChannel
    pairs_sent: int = 0
    pairs_received: int = 0
    outbox: list = field(default_factory=list)
    flush_scheduled: bool = False

    def state_key(self) -> tuple:
        return (
            tuple(self.outbox),
            self.pairs_sent,
            self.pairs_received,
            self.flush_scheduled,
            self.channel.state_key(),
        )


class ISProcess(SimProcess, UpcallHandler):
    """One IS-process, running the IS-protocol of its system's side."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mcs: MCSProcess,
        recorder: HistoryRecorder,
        use_pre_update: bool,
        read_before_send: bool = True,
        coalesce_queued: bool = False,
        dedup_incoming: bool = False,
    ) -> None:
        """Create an IS-process attached to *mcs*.

        Args:
            use_pre_update: True selects IS-protocol 2 (the
                ``Pre_Propagate_out`` task runs and ``pre_update`` upcalls
                are enabled); False selects IS-protocol 1.
            read_before_send: the paper's ``Propagate_out`` always reads
                the value before sending; setting this False is the E8
                ablation that drops the read (and with it the causal
                anchoring of propagated values).
            coalesce_queued: while the channel is *down*, merge
                consecutive same-variable pairs in the IS-side outbox
                (extension X4). Only adjacent pairs may be merged: the
                pair order carries the causal order (Lemma 1), and
                dropping a pair past a different-variable successor would
                let the peer observe the successor without its causal
                predecessor ever arriving.
            dedup_incoming: drop pairs whose (variable, value) was already
                received, making ``Propagate_in`` idempotent. Needed when
                the inter-IS channel is at-least-once instead of exactly-
                once (experiment X7): a duplicated pair would otherwise be
                written twice, violating the §2 value-uniqueness
                discipline.
        """
        super().__init__(sim, name)
        # Weak: the system owns its MCS-processes (DSMSystem.mcs_processes),
        # and *mcs* holds this process as its upcall handler.
        self.mcs = weakref.proxy(mcs)
        # IS events (Propagate_in drains) write to the attached
        # MCS-process, so they live in its scheduling domain — the
        # explorer additionally aliases this IS-process's own name to the
        # same domain for pairs arriving on the inter-IS channel.
        self.event_tag = f"proc:{getattr(mcs, 'name', name)}"
        self.recorder = recorder
        self.wants_pre_update = use_pre_update
        self.read_before_send = read_before_send
        self.coalesce_queued = coalesce_queued
        self.pairs_coalesced = 0
        self.dedup_incoming = dedup_incoming
        self.duplicates_dropped = 0
        self._seen_pairs: set[tuple[str, Any]] = set()
        self._peers: dict[str, _PeerLink] = {}
        self._write_queue: deque[PropagatedPair] = deque()
        self._writing = False
        self.pairs_propagated_out = 0
        self.pairs_applied_in = 0
        mcs.attach_upcall_handler(self)

    # -- peer management ----------------------------------------------------

    def add_peer(self, peer_name: str, channel: ReliableFifoChannel) -> None:
        """Register an outgoing FIFO channel to the IS-process *peer_name*."""
        if peer_name in self._peers:
            raise ProtocolError(f"{self.name}: duplicate peer {peer_name!r}")
        self._peers[peer_name] = _PeerLink(peer_name, channel)

    @property
    def peer_names(self) -> list[str]:
        return list(self._peers)

    def link_stats(self, peer_name: str) -> tuple[int, int]:
        """(pairs sent, pairs received) on the link to *peer_name*."""
        link = self._peers[peer_name]
        return link.pairs_sent, link.pairs_received

    def state_key(self) -> tuple:
        """Propagation state, in the form of :meth:`MCSProcess.state_key`:
        write queue, counters, seen pairs and every peer link (outbox,
        counters and the channel's own key)."""
        return (
            tuple(self._write_queue),
            self._writing,
            frozenset(self._seen_pairs),
            self.pairs_propagated_out,
            self.pairs_applied_in,
            self.pairs_coalesced,
            self.duplicates_dropped,
            tuple(link.state_key() for link in self._peers.values()),
        )

    # -- upcall handling (Propagate_out / Pre_Propagate_out) ------------------

    def pre_update(self, var: str) -> None:
        """Task ``Pre_Propagate_out`` (Fig. 2): read the old value of *var*."""
        if self.sim.tracer is not None:
            self.trace(
                "is.pre_update",
                system=self.mcs.system_name,
                var=var,
                clock=getattr(self.mcs, "clock", None),
            )
        self._synchronous_read(var)

    def post_update(self, var: str, value: Any) -> None:
        """Task ``Propagate_out`` (Fig. 1): read *var* and send the pair."""
        if self.sim.tracer is not None:
            self.trace(
                "is.post_update",
                system=self.mcs.system_name,
                var=var,
                value=value,
                clock=getattr(self.mcs, "clock", None),
            )
        if self.read_before_send:
            seen = self._synchronous_read(var)
            if seen != value:
                raise ProtocolError(
                    f"{self.name}: condition (c) violated — post_update({var!r}, "
                    f"{value!r}) but the read returned {seen!r}"
                )
            outgoing = seen
        else:
            outgoing = value  # E8 ablation: trust the upcall, skip the read
        pair = PropagatedPair(var, outgoing)
        self.pairs_propagated_out += 1
        for link in self._peers.values():
            self._send_pair(link, pair)

    def _synchronous_read(self, var: str) -> Any:
        """Issue a read that must complete within the upcall (condition (b))."""
        result: list[Any] = []
        issue_time = self.now

        def on_value(value: Any) -> None:
            result.append(value)
            self.recorder.record(
                kind=OpKind.READ,
                proc=self.name,
                var=var,
                value=value,
                system=self.mcs.system_name,
                issue_time=issue_time,
                response_time=self.now,
                is_interconnect=True,
            )

        self.mcs.issue_read(var, on_value)
        if not result:
            raise ProtocolError(
                f"{self.name}: the MCS-process must serve IS reads synchronously "
                "during upcalls (condition (b) of §2)"
            )
        return result[0]

    # -- outgoing pair transmission ---------------------------------------------

    def _send_pair(self, link: _PeerLink, pair: PropagatedPair) -> None:
        link.pairs_sent += 1
        if self.sim.tracer is not None:
            self.trace(
                "is.pair_send",
                system=self.mcs.system_name,
                link=f"{self.name}->{link.peer_name}",
                seq=link.pairs_sent,
                var=pair.var,
                value=pair.value,
                clock=getattr(self.mcs, "clock", None),
            )
        if not self.coalesce_queued or link.channel.is_up:
            self._flush_outbox(link)
            link.channel.send((self.name, pair))
            return
        # Link down: queue IS-side. Adjacency-limited coalescing only —
        # replacing a non-adjacent pair would reorder causally dependent
        # values across variables (see __init__ docstring).
        if link.outbox and link.outbox[-1].var == pair.var:
            link.outbox[-1] = pair
            self.pairs_coalesced += 1
        else:
            link.outbox.append(pair)
        self._schedule_flush(link)

    def _schedule_flush(self, link: _PeerLink) -> None:
        if link.flush_scheduled:
            return
        link.flush_scheduled = True
        self.sim.schedule_at(
            link.channel.next_up_time(),
            lambda: self._flush_outbox(link, rearm=True),
            tag=self.event_tag,
        )

    def _flush_outbox(self, link: _PeerLink, rearm: bool = False) -> None:
        if rearm:
            link.flush_scheduled = False
        if not link.outbox:
            return
        if not link.channel.is_up:
            self._schedule_flush(link)
            return
        while link.outbox:
            link.channel.send((self.name, link.outbox.pop(0)))

    # -- receipt handling (Propagate_in) ---------------------------------------

    def receive(self, from_peer: str, pair: PropagatedPair) -> None:
        """Handle a pair arriving on the channel from *from_peer*."""
        link = self._peers.get(from_peer)
        if link is None:
            raise ProtocolError(f"{self.name}: pair from unknown peer {from_peer!r}")
        link.pairs_received += 1
        if self.sim.tracer is not None:
            self.trace(
                "is.pair_recv",
                system=self.mcs.system_name,
                link=f"{from_peer}->{self.name}",
                seq=link.pairs_received,
                var=pair.var,
                value=pair.value,
            )
        if self.dedup_incoming:
            key = (pair.var, pair.value)
            if key in self._seen_pairs:
                self.duplicates_dropped += 1
                return
            self._seen_pairs.add(key)
        # Shared IS-process: forward to every other peer, preserving the
        # per-link receipt order (tree flooding without cycles).
        for other in self._peers.values():
            if other.peer_name != from_peer:
                self._send_pair(other, pair)
        self._write_queue.append(pair)
        self._drain_writes()

    def _drain_writes(self) -> None:
        """Task ``Propagate_in``: apply queued pairs strictly in order."""
        if self._writing or not self._write_queue:
            return
        self._writing = True
        pair = self._write_queue.popleft()
        issue_time = self.now

        def on_written() -> None:
            self.recorder.record(
                kind=OpKind.WRITE,
                proc=self.name,
                var=pair.var,
                value=pair.value,
                system=self.mcs.system_name,
                issue_time=issue_time,
                response_time=self.now,
                is_interconnect=True,
            )
            tracer = self.sim.tracer
            if tracer is not None:
                # The Propagate_in write as a complete span: issue->response
                # of the causal re-injection into this system.
                tracer.emit(
                    issue_time,
                    "is.propagate_in",
                    self.name,
                    system=self.mcs.system_name,
                    phase="X",
                    dur=self.now - issue_time,
                    var=pair.var,
                    value=pair.value,
                    clock=getattr(self.mcs, "clock", None),
                )
            self.pairs_applied_in += 1
            self._writing = False
            if self._write_queue:
                # Reschedule rather than recurse: a long burst of queued
                # pairs (e.g. after a dial-up link comes back) would
                # otherwise nest one stack frame per pair.
                self.soon(self._drain_writes)

        self.mcs.issue_write(pair.var, pair.value, on_written)


__all__ = ["ISProcess", "PropagatedPair"]
