"""Unit tests for the symmetric (Lamport total-order) sequential protocol."""

from repro.checker import check_causal, check_sequential
from repro.memory.program import Read, Sleep, Write
from repro.memory.recorder import HistoryRecorder
from repro.memory.system import DSMSystem
from repro.obs import TrafficMeter
from repro.protocols import get
from repro.sim.core import Simulator
from repro.workloads import WorkloadSpec, populate_system
from repro.workloads.scenarios import run_until_quiescent


def make_system(seed=0, delay=1.0):
    sim = Simulator()
    recorder = HistoryRecorder()
    system = DSMSystem(
        sim, "S", get("lamport-sequential"), recorder=recorder, seed=seed, default_delay=delay
    )
    return sim, recorder, system


class TestTotalOrder:
    def test_writes_block_until_stable(self):
        sim, recorder, system = make_system(delay=2.0)
        system.add_application("A", [Write("x", 1)])
        system.add_application("B", [])
        sim.run()
        op = recorder.history().operations[0]
        # The writer needs the peer's ack: at least one round trip.
        assert op.response_time - op.issue_time >= 4.0

    def test_reads_local_and_immediate(self):
        sim, recorder, system = make_system(delay=5.0)
        system.add_application("A", [Read("x")])
        system.add_application("B", [])
        sim.run()
        op = recorder.history().operations[0]
        assert op.response_time == op.issue_time

    def test_replicas_agree_on_final_value(self):
        sim, _, system = make_system()
        system.add_application("A", [Write("x", 1)])
        system.add_application("B", [Write("x", 2)])
        readers = [
            system.add_application(f"R{index}", [Sleep(40.0), Read("x")]) for index in range(3)
        ]
        sim.run()
        finals = {reader.mcs.local_value("x") for reader in readers}
        assert len(finals) == 1

    def test_single_node_system_works(self):
        sim, recorder, system = make_system()
        system.add_application("only", [Write("x", 1), Read("x")])
        sim.run()
        assert recorder.history().operations[-1].value == 1

    def test_message_cost_is_quadratic(self):
        # (n-1) write messages + (n-1) ack broadcasts of (n-1) each.
        sim, _, system = make_system()
        meter = TrafficMeter().attach(system.network)
        system.add_application("A", [Write("x", 1)])
        for index in range(3):
            system.add_application(f"p{index}", [])
        sim.run()
        n = 4
        assert meter.by_kind["TotalOrderWrite"] == n - 1
        assert meter.by_kind["ClockAck"] == (n - 1) * (n - 1)


class TestConsistency:
    def test_histories_are_sequential(self):
        for seed in range(4):
            sim, recorder, system = make_system(seed=seed)
            populate_system(
                system,
                WorkloadSpec(processes=3, ops_per_process=5, write_ratio=0.5),
                seed=seed,
            )
            run_until_quiescent(sim, [system])
            history = recorder.history()
            assert check_sequential(history).ok
            assert check_causal(history).ok

    def test_contended_variable_sequential(self):
        sim, recorder, system = make_system(seed=9)
        populate_system(
            system,
            WorkloadSpec(
                processes=4, ops_per_process=5, write_ratio=0.7, variables=("hot",),
                max_think=0.2,
            ),
            seed=9,
        )
        run_until_quiescent(sim, [system])
        assert check_sequential(recorder.history()).ok
