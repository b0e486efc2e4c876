"""Unit tests for RecoverableISProcess: the crash windows the WAL
discipline must close, exercised one at a time against a fake MCS whose
write latency we control (the integrated campaigns rarely catch a crash
exactly between RECV and ISSUED; here we force it)."""

import random
from typing import Any, Callable

import pytest

from repro.errors import ProtocolError
from repro.interconnect.is_process import PropagatedPair
from repro.memory.interface import MCSProcess, ReplicaWrite, UpcallHandler
from repro.memory.recorder import HistoryRecorder
from repro.obs.instruments import observe
from repro.obs.tracer import ListSink
from repro.resilience.recovery import RecoverableISProcess
from repro.resilience.transport import ResilientTransport, RetryPolicy
from repro.sim.channel import FaultPlan
from repro.sim.core import Simulator
from repro.sim.network import Network


class SlowMCS:
    """Duck-typed MCS-process stub whose writes take *write_delay* to
    respond — long enough for a crash to land mid-queue."""

    def __init__(self, sim, write_delay: float = 0.0) -> None:
        self._sim = sim
        self.write_delay = write_delay
        self.system_name = "S"
        self.store: dict[str, Any] = {}
        self.writes: list[tuple[str, Any]] = []
        self.missed_upcalls: list[tuple[str, Any]] = []
        self.handler = None

    def attach_upcall_handler(self, handler) -> None:
        self.handler = handler

    def issue_write(self, var: str, value: Any, done: Callable[[], None]) -> None:
        def respond() -> None:
            self.store[var] = value
            self.writes.append((var, value))
            done()

        if self.write_delay:
            self._sim.schedule(self.write_delay, respond)
        else:
            respond()

    def issue_read(self, var: str, done: Callable[[Any], None]) -> None:
        done(self.store.get(var))

    def drain_missed_upcalls(self) -> list[tuple[str, Any]]:
        missed, self.missed_upcalls = self.missed_upcalls, []
        return missed


def build_isp(sim, mcs, name="isp", **transport_kwargs):
    """One recoverable IS-process with a single peer link in each
    direction; returns (isp, incoming transport, outgoing deliveries)."""
    isp = RecoverableISProcess(
        sim, name=name, mcs=mcs, recorder=HistoryRecorder(), use_pre_update=False,
    )
    outbox = []
    outgoing = ResilientTransport(
        sim, deliver=outbox.append, delay=1.0, rng=random.Random(1),
        name="out", sender_up=lambda: isp.alive, **transport_kwargs,
    )
    incoming = ResilientTransport(
        sim, deliver=lambda message: isp.receive(*message), delay=1.0,
        rng=random.Random(2), name="in", receiver_up=lambda: isp.alive,
    )
    isp.add_peer("peer", outgoing)
    isp.register_incoming("peer", incoming)
    return isp, incoming, outbox


class TestCrashBetweenRecvAndIssue:
    def test_unissued_pairs_replay_from_wal_in_order(self):
        """Pairs received (and acked!) but still queued when the crash
        hits must be re-issued from the WAL — exactly once, in order."""
        sim = Simulator()
        mcs = SlowMCS(sim, write_delay=5.0)
        isp, incoming, _ = build_isp(sim, mcs)
        for index in range(3):
            sim.schedule(
                float(index),
                lambda index=index: incoming.send(
                    ("peer", PropagatedPair("x", f"v{index}"))
                ),
            )
        # At t=4: pair 0 is mid-write (ISSUED), pairs 1 and 2 sit in the
        # volatile queue with only their RECV records durable.
        sim.schedule_at(4.0, isp.crash)
        sim.schedule_at(20.0, isp.recover)
        sim.run()
        assert mcs.writes == [("x", "v0"), ("x", "v1"), ("x", "v2")]
        assert isp.pairs_recovered == 2
        assert isp.crashes == 1 and isp.recoveries == 1

    def test_in_flight_write_not_reissued(self):
        """The write being served by the MCS at crash time has a durable
        ISSUED record; recovery must not apply it a second time."""
        sim = Simulator()
        mcs = SlowMCS(sim, write_delay=5.0)
        isp, incoming, _ = build_isp(sim, mcs)
        incoming.send(("peer", PropagatedPair("x", "v0")))
        sim.schedule_at(2.0, isp.crash)  # write in flight until t=6
        sim.schedule_at(10.0, isp.recover)
        sim.run()
        assert mcs.writes == [("x", "v0")]
        assert isp.pairs_recovered == 0


class TestSenderCrash:
    def test_unacked_pairs_retransmitted_with_original_numbering(self):
        sim = Simulator()
        mcs = SlowMCS(sim)
        isp, _, outbox = build_isp(
            sim, mcs,
            faults=FaultPlan(partitions=((0.0, 30.0),)),
            retry=RetryPolicy(base_timeout=500.0, max_timeout=500.0, jitter=0.0),
        )
        outgoing = isp._peers["peer"].channel
        mcs.store["x"] = "v1"
        sim.schedule_at(1.0, lambda: isp.post_update("x", "v1"))
        sim.schedule_at(5.0, isp.crash)  # frame was lost in the partition
        sim.schedule_at(40.0, isp.recover)
        sim.run()
        assert outbox == [("isp", PropagatedPair("x", "v1"))]
        assert outgoing.wire.retransmissions >= 1
        assert outgoing._next_seq == 1  # WAL restored the original numbering

    def test_acked_pairs_not_retransmitted_after_recovery(self):
        sim = Simulator()
        mcs = SlowMCS(sim)
        isp, _, outbox = build_isp(sim, mcs)
        mcs.store["x"] = "v1"
        sim.schedule_at(1.0, lambda: isp.post_update("x", "v1"))
        sim.schedule_at(10.0, isp.crash)  # long after the ack came back
        sim.schedule_at(12.0, isp.recover)
        sim.run()
        assert outbox == [("isp", PropagatedPair("x", "v1"))]


class TestMissedUpcallReplay:
    def test_updates_applied_while_down_propagate_late(self):
        sim = Simulator()
        mcs = SlowMCS(sim)
        isp, _, outbox = build_isp(sim, mcs)
        isp.crash()
        # The memory system keeps running while the IS-process is down.
        mcs.store["y"] = "u1"
        mcs.missed_upcalls.append(("y", "u1"))
        sim.schedule_at(5.0, isp.recover)
        sim.run()
        assert outbox == [("isp", PropagatedPair("y", "u1"))]
        assert isp.upcalls_replayed == 1

    def test_looped_back_pairs_not_resent(self):
        """A missed update caused by a peer's own pair (it crossed the
        link, we applied it, then crashed) must not bounce back."""
        sim = Simulator()
        mcs = SlowMCS(sim)
        isp, incoming, outbox = build_isp(sim, mcs)
        incoming.send(("peer", PropagatedPair("z", "w1")))
        sim.run()
        isp.crash()
        mcs.missed_upcalls.append(("z", "w1"))  # replica echo of the peer's pair
        sim.schedule_at(5.0, isp.recover)
        sim.run()
        assert outbox == []
        assert isp.upcalls_replayed == 0


class TestCrashDiscipline:
    def test_crash_and_recover_are_idempotent(self):
        sim = Simulator()
        # The caller owns the MCS-process: the IS-process holds it weakly.
        mcs = SlowMCS(sim)
        isp, _, _ = build_isp(sim, mcs)
        isp.crash()
        isp.crash()
        assert isp.crashes == 1
        isp.recover()
        isp.recover()
        assert isp.recoveries == 1
        assert isp.alive

    def test_duplicate_pair_retired_in_wal(self):
        """A duplicate arriving with a fresh sequence number must retire
        its RECV record immediately, or recovery would double-apply it."""
        sim = Simulator()
        mcs = SlowMCS(sim)
        isp, incoming, _ = build_isp(sim, mcs)
        incoming.send(("peer", PropagatedPair("x", "v1")))
        incoming.send(("peer", PropagatedPair("x", "v1")))  # app-level duplicate
        sim.run()
        assert mcs.writes == [("x", "v1")]
        assert isp.duplicates_dropped == 1
        assert isp.wal.recover().unissued == []

    def test_duplicate_incoming_registration_rejected(self):
        sim = Simulator()
        isp, incoming, _ = build_isp(sim, SlowMCS(sim))
        with pytest.raises(ProtocolError):
            isp.register_incoming("peer", incoming)


class _CountingHandler(UpcallHandler):
    def __init__(self) -> None:
        self.delivered: list[tuple[str, Any]] = []

    def post_update(self, var: str, value: Any) -> None:
        self.delivered.append((var, value))


class _ReplicaMCS(MCSProcess):
    """Minimal concrete MCSProcess: apply updates locally, nothing else."""

    def _handle_write(self, var, value, done):
        self._apply_with_upcalls(ReplicaWrite(var, value), own_write=False)
        done()

    def _handle_read(self, var, done):
        done(None)

    def _on_message(self, src, payload):  # pragma: no cover - unused
        pass


class TestMissedUpcallQueue:
    """The MCSProcess side of the contract: gate on accepting_upcalls."""

    def make_mcs(self):
        sim = Simulator()
        network = Network(sim)
        mcs = _ReplicaMCS(sim, "m0", network, proc_index=0, system_name="S")
        handler = _CountingHandler()
        mcs.attach_upcall_handler(handler)
        return mcs, handler

    def test_upcalls_queue_while_handler_down(self):
        mcs, handler = self.make_mcs()
        handler.accepting_upcalls = False
        mcs.issue_write("x", 1, lambda: None)
        mcs.issue_write("y", 2, lambda: None)
        assert handler.delivered == []
        assert mcs.missed_upcalls == [("x", 1), ("y", 2)]
        assert mcs.drain_missed_upcalls() == [("x", 1), ("y", 2)]
        assert mcs.missed_upcalls == []

    def test_upcalls_deliver_normally_when_accepting(self):
        mcs, handler = self.make_mcs()
        mcs.issue_write("x", 1, lambda: None)
        assert handler.delivered == [("x", 1)]
        assert mcs.missed_upcalls == []

    def test_replica_apply_traced_even_while_queued(self):
        mcs, handler = self.make_mcs()
        sink = observe(mcs.sim, ListSink())
        handler.accepting_upcalls = False
        mcs.issue_write("x", 1, lambda: None)
        applied = [event for event in sink.events if event.kind == "replica.apply"]
        assert [(e.component, e.arg("var"), e.arg("value")) for e in applied] == [
            ("m0", "x", 1)
        ]
        assert mcs.missed_upcalls == [("x", 1)]
