"""Crash/restart orchestration for IS-processes.

A :class:`RecoverableISProcess` is an IS-process (§3) whose volatile
state can vanish mid-flight — write queue, dedup set, transport sessions
— and be rebuilt from its write-ahead log so that **no propagated pair
is lost and none is applied twice**. The division of labour:

* the :class:`~repro.resilience.transport.ResilientTransport` endpoints
  refuse frames while the host is down (a crashed node's NIC answers
  nothing), so peers simply keep retransmitting into the void;
* the :class:`~repro.resilience.wal.WriteAheadLog` persists the session
  numbering, pending incoming pairs, and the seen-pair set (see that
  module for the write-ordering discipline that closes the crash
  windows);
* the MCS-process — which is the memory system, *not* the crashed
  application-level IS-process — stays alive and queues the
  ``post_update`` upcalls the IS-process missed (the dial-up spirit of
  §1.1: updates queue up and are propagated later); recovery drains the
  queue in replica-apply order, which for causal-updating protocols is a
  causal order (Lemma 1), so replayed pairs cross the link in a sound
  order.

Crash atomicity: crashes land *between* simulator events (they are
scheduled events themselves), and the WAL discipline makes every event's
durable effects atomic with its in-memory effects, so there is no
torn-state window to reason about — exactly the benefit a real WAL buys
with group fsync, modelled at event granularity.

A write in flight inside the MCS at crash time keeps running: its
``ISSUED`` record is already durable, so recovery will not re-issue it,
and its completion callback is tolerated while the process is down.
"""

from __future__ import annotations

import weakref
from collections import deque
from typing import Any, Optional

from repro.errors import ProtocolError
from repro.interconnect.is_process import ISProcess, PropagatedPair
from repro.memory.interface import MCSProcess
from repro.memory.recorder import HistoryRecorder
from repro.resilience.transport import ResilientTransport
from repro.resilience.wal import ACKED, ISSUED, RECV, SENT, VALUE, WriteAheadLog
from repro.sim.core import Simulator


class RecoverableISProcess(ISProcess):
    """An IS-process that can crash and be restarted from its WAL.

    Differences from the base class:

    * every received pair is logged ``RECV`` before the transport acks it,
      and ``ISSUED`` in the event that hands it to the MCS;
    * every outgoing pair is logged ``SENT`` when the transport assigns
      its sequence number, and retired by ``ACKED``;
    * ``post_update`` logs the value read (``VALUE``) before sending;
    * :meth:`crash` discards all volatile state; :meth:`recover` rebuilds
      it from the WAL, restores the transport sessions on both
      directions of every link, replays unissued pairs, and propagates
      the replica updates that arrived while the process was down.

    Incoming dedup is always on: the persisted seen-pair set is what
    makes ``Propagate_in`` idempotent across restarts.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mcs: MCSProcess,
        recorder: HistoryRecorder,
        use_pre_update: bool,
        read_before_send: bool = True,
        coalesce_queued: bool = False,
        wal: Optional[WriteAheadLog] = None,
    ) -> None:
        super().__init__(
            sim, name, mcs, recorder,
            use_pre_update=use_pre_update,
            read_before_send=read_before_send,
            coalesce_queued=coalesce_queued,
            dedup_incoming=True,
        )
        self.wal = wal or WriteAheadLog(name=f"{name}.wal")
        # The hooks this process installs on its WAL and on the transports
        # (its outgoing ones, and the incoming ones its peers own) hold it
        # weakly: it is owned by its Bridge and its MCS-process's upcall
        # attachment, so a finished run is freed by reference counting.
        self._weak = weakref.proxy(self)
        self.wal.on_append = lambda record, me=self._weak: me._on_wal_append(record)
        self.alive = True
        self.accepting_upcalls = True
        self.crashes = 0
        self.recoveries = 0
        self.pairs_recovered = 0  # re-issued from the WAL after a crash
        self.upcalls_replayed = 0  # missed replica updates propagated at recovery
        self._incoming: dict[str, ResilientTransport] = {}
        self._pending_meta: deque[tuple[str, int]] = deque()
        self._current_recv: Optional[tuple[str, int]] = None

    # -- wiring -------------------------------------------------------------

    def add_peer(self, peer_name: str, channel) -> None:
        super().add_peer(peer_name, channel)
        if isinstance(channel, ResilientTransport):
            me = self._weak
            channel.on_assign = lambda seq, message, peer=peer_name: me.wal.log(
                SENT, peer=peer, seq=seq, var=message[1].var, value=message[1].value
            )
            channel.on_ack_progress = lambda cumulative, peer=peer_name: me.wal.log(
                ACKED, peer=peer, seq=cumulative
            )

    def register_incoming(self, peer_name: str, channel: ResilientTransport) -> None:
        """Attach the reverse-direction transport (pairs *from* *peer_name*)
        so its receiver session can be journalled and restored."""
        if peer_name in self._incoming:
            raise ProtocolError(f"{self.name}: duplicate incoming link from {peer_name!r}")
        self._incoming[peer_name] = channel
        me = self._weak
        channel.on_deliver = lambda seq, message, peer=peer_name: me._note_recv(
            peer, seq, message
        )

    def _on_wal_append(self, record) -> None:
        if self.sim.tracer is not None:
            self.trace(
                "wal.append",
                system=self.mcs.system_name,
                wal=self.wal.name,
                record=record.kind,
            )

    # -- receipt: journal, then the base Propagate_in ------------------------

    def _note_recv(self, peer: str, seq: int, message: tuple[str, PropagatedPair]) -> None:
        # Runs inside the transport's delivery event, before receive() and
        # before the transport acks: the pair is durable by ack time.
        _, pair = message
        self.wal.log(RECV, peer=peer, seq=seq, var=pair.var, value=pair.value)
        self._current_recv = (peer, seq)

    def receive(self, from_peer: str, pair: PropagatedPair) -> None:
        meta = self._current_recv or (from_peer, -1)
        self._current_recv = None
        duplicate = (pair.var, pair.value) in self._seen_pairs
        if not duplicate:
            self._pending_meta.append(meta)  # popped when the pair is issued
        super().receive(from_peer, pair)
        if duplicate:
            self.wal.log(ISSUED, peer=meta[0], seq=meta[1])  # retired: nothing to apply

    def _drain_writes(self) -> None:
        if not self.alive or self._writing or not self._write_queue:
            return
        peer, seq = self._pending_meta.popleft() if self._pending_meta else ("", -1)
        # Logged in the same event that issues the write: "was this pair
        # applied?" never has an ambiguous answer after a crash.
        self.wal.log(ISSUED, peer=peer, seq=seq)
        super()._drain_writes()

    # -- propagation out: journal the value read -----------------------------

    def post_update(self, var: str, value: Any) -> None:
        self.wal.log(VALUE, var=var, value=value)
        super().post_update(var, value)

    # -- crash --------------------------------------------------------------

    def crash(self) -> None:
        """Kill the process: all volatile state is lost, upcalls and frames
        start bouncing off. The WAL (stable storage) and the MCS-process
        (the memory system itself) survive."""
        if not self.alive:
            return
        self.alive = False
        self.accepting_upcalls = False
        self.crashes += 1
        if self.sim.tracer is not None:
            self.trace("is.crash", system=self.mcs.system_name, crashes=self.crashes)
        self._write_queue.clear()
        self._pending_meta.clear()
        self._seen_pairs = set()
        self._current_recv = None
        # NOTE: self._writing is deliberately left as-is — an MCS write in
        # flight completes at the memory layer regardless of our crash, and
        # its completion callback must not be double-counted by recovery.
        for link in self._peers.values():
            if isinstance(link.channel, ResilientTransport):
                link.channel.freeze_sender()

    # -- recovery -----------------------------------------------------------

    def recover(self) -> None:
        """Restart from the WAL: restore sessions, re-issue unissued pairs,
        and propagate the replica updates missed while down."""
        if self.alive:
            return
        state = self.wal.recover()
        self.recoveries += 1
        if self.sim.tracer is not None:
            self.trace(
                "is.recover",
                system=self.mcs.system_name,
                unissued=len(state.unissued),
                recoveries=self.recoveries,
            )
        self._seen_pairs = set(state.seen_pairs)
        for peer, seq, var, value in state.unissued:
            self._write_queue.append(PropagatedPair(var, value))
            self._pending_meta.append((peer, seq))
            self.pairs_recovered += 1
        for peer, link in self._peers.items():
            session = state.sessions.get(peer)
            if session is not None and isinstance(link.channel, ResilientTransport):
                unacked = [
                    (seq, (self.name, PropagatedPair(var, value)))
                    for seq, (var, value) in sorted(session.unacked.items())
                ]
                link.channel.restore_sender(session.next_seq, unacked)
        self.alive = True
        self.accepting_upcalls = True
        for peer, channel in self._incoming.items():
            session = state.sessions.get(peer)
            channel.restore_receiver(session.next_expected if session is not None else 0)
        # Replica updates applied while we were down, in apply order (for a
        # causal-updating protocol this is a causal order, so the pairs
        # cross the link soundly — the same argument as Lemma 1).
        for var, value in self.mcs.drain_missed_upcalls():
            self._replay_propagate_out(var, value)
        self._drain_writes()

    def _replay_propagate_out(self, var: str, value: Any) -> None:
        """``Propagate_out`` for an update that happened while down.

        The anchoring read still runs — the write is applied at our
        replica, which is what Lemma 1 needs — but condition (c)'s
        equality check is waived: later writes may have overwritten the
        replica by now, and the pair must carry the *upcall's* value so
        no update is skipped.
        """
        if (var, value) in self._seen_pairs:
            return  # a peer's pair looped back through the replica; not ours to re-send
        self.upcalls_replayed += 1
        self.wal.log(VALUE, var=var, value=value)
        if self.read_before_send:
            self._synchronous_read(var)
        pair = PropagatedPair(var, value)
        self.pairs_propagated_out += 1
        for link in self._peers.values():
            self._send_pair(link, pair)


__all__ = ["RecoverableISProcess"]
