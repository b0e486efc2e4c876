"""Unit tests for the Attiya-Welch sequential protocol."""

import pytest

from repro.checker import check_causal, check_sequential
from repro.memory.program import Read, Sleep, Write
from repro.memory.recorder import HistoryRecorder
from repro.memory.system import DSMSystem
from repro.protocols import get
from repro.sim.core import Simulator


def make_system(delay=1.0, seed=0, protocol="aw-sequential"):
    sim = Simulator()
    recorder = HistoryRecorder()
    system = DSMSystem(
        sim, "S", get(protocol), recorder=recorder, default_delay=delay, seed=seed
    )
    return sim, recorder, system


class TestWritesBlock:
    def test_write_waits_for_total_order(self):
        sim, recorder, system = make_system(delay=2.0)
        system.add_application("A", [Write("x", 1)])
        sequencer_holder = system.add_application("B", [])
        sim.run()
        op = recorder.history().operations[0]
        # Non-sequencer write: request to sequencer + broadcast back = 2 hops.
        assert op.response_time - op.issue_time >= 2.0 or op.response_time == op.issue_time

    def test_reads_are_local_and_immediate(self):
        sim, recorder, system = make_system(delay=5.0)
        system.add_application("A", [Read("x")])
        system.add_application("B", [])
        sim.run()
        op = recorder.history().operations[0]
        assert op.response_time == op.issue_time

    def test_sequencer_is_stable_minimum(self):
        sim, _, system = make_system()
        a = system.add_application("alice", [])
        b = system.add_application("bob", [])
        sim.run()
        assert a.mcs._sequencer_of("x") == min(system.network.node_ids)
        assert a.mcs._sequencer_of("x") == b.mcs._sequencer_of("y")

    def test_acknowledgement_order_enforced(self):
        # One global stream, one stream per variable at its owner, and
        # Lamport timestamps.
        for protocol in ("aw-sequential", "parametrized-cache", "lamport-sequential"):
            sim, recorder, system = make_system(protocol=protocol)
            system.add_application("A", [Write("x", 1), Write("y", 2)])
            system.add_application("B", [])
            sim.run()  # ProtocolError would surface if acks came out of order
            writes = [(op.var, op.value) for op in recorder.history().of_process("A")]
            assert writes == [("x", 1), ("y", 2)]

    def test_lamport_out_of_order_acknowledgement_is_an_error(self):
        from repro.errors import ProtocolError
        from repro.protocols.lamport_total import TotalOrderWrite

        sim, _, system = make_system(protocol="lamport-sequential")
        mcs = system.new_mcs("A")
        system.new_mcs("B")  # a peer keeps both writes pending
        mcs.issue_write("x", 1, lambda: None)
        mcs.issue_write("y", 2, lambda: None)
        second = TotalOrderWrite(ts=mcs._clock.tick(), var="y", value=2, origin=mcs.name)
        with pytest.raises(ProtocolError, match="acknowledged out of order"):
            mcs._apply(second)


class TestSequentialConsistency:
    def test_all_replicas_converge(self):
        sim, _, system = make_system()
        system.add_application("A", [Write("x", 1)])
        system.add_application("B", [Write("x", 2)])
        c = system.add_application("C", [Sleep(20.0), Read("x")])
        sim.run()
        final = c.mcs.local_value("x")
        for app in system.app_processes:
            assert app.mcs.local_value("x") == final

    def test_histories_are_sequential(self):
        from repro.workloads import WorkloadSpec, populate_system
        from repro.workloads.scenarios import run_until_quiescent

        for seed in range(4):
            sim, recorder, system = make_system(seed=seed)
            populate_system(
                system,
                WorkloadSpec(processes=3, ops_per_process=6, write_ratio=0.5),
                seed=seed,
            )
            run_until_quiescent(sim, [system])
            history = recorder.history()
            assert check_sequential(history).ok
            assert check_causal(history).ok  # sequential implies causal

    def test_total_write_order_agreed(self):
        sim, _, system = make_system()
        system.add_application("A", [Write("x", 1), Write("x", 3)])
        system.add_application("B", [Write("x", 2)])
        readers = [
            system.add_application(f"R{index}", [Sleep(30.0), Read("x")])
            for index in range(3)
        ]
        sim.run()
        finals = {reader.mcs.local_value("x") for reader in readers}
        assert len(finals) == 1
