"""Unit tests for the parametrized (causal / sequential / cache) protocol."""

from repro.checker import check_cache, check_causal, check_sequential
from repro.memory.program import Read, Sleep, Write
from repro.memory.recorder import HistoryRecorder
from repro.memory.system import DSMSystem
from repro.protocols import get
from repro.sim.core import Simulator
from repro.workloads import WorkloadSpec, populate_system
from repro.workloads.scenarios import run_until_quiescent


def run_workload(protocol_name, seed=0, spec=None):
    sim = Simulator()
    recorder = HistoryRecorder()
    system = DSMSystem(sim, "S", get(protocol_name), recorder=recorder, seed=seed)
    populate_system(
        system,
        spec or WorkloadSpec(processes=3, ops_per_process=6, write_ratio=0.5),
        seed=seed,
    )
    run_until_quiescent(sim, [system])
    return recorder.history()


class TestModeSelection:
    def test_registered_specs_have_right_metadata(self):
        assert get("parametrized-causal").causal_updating
        assert get("parametrized-causal").consistency == "causal"
        assert get("parametrized-sequential").consistency == "sequential"
        assert not get("parametrized-cache").causal_updating
        assert get("parametrized-cache").consistency == "cache"


class TestCausalMode:
    def test_histories_are_causal(self):
        for seed in range(4):
            assert check_causal(run_workload("parametrized-causal", seed=seed)).ok

    def test_write_responds_immediately(self):
        sim = Simulator()
        recorder = HistoryRecorder()
        system = DSMSystem(sim, "S", get("parametrized-causal"), recorder=recorder, default_delay=9.0)
        system.add_application("A", [Write("x", 1)])
        system.add_application("B", [])
        sim.run()
        op = recorder.history().operations[0]
        assert op.response_time == op.issue_time

    def test_dependency_gating(self):
        sim = Simulator()
        recorder = HistoryRecorder()
        system = DSMSystem(sim, "S", get("parametrized-causal"), recorder=recorder)
        writer = system.add_application("A", [Write("x", 1)])

        def b_program():
            while True:
                value = yield Read("x")
                if value == 1:
                    break
                yield Sleep(0.5)
            yield Write("y", 2)

        system.add_application("B", b_program())
        program = []
        for _ in range(40):
            program += [Read("y"), Read("x"), Sleep(1.0)]
        observer = system.add_application("C", program)
        system.network.set_delay(writer.mcs.name, observer.mcs.name, 25.0)
        sim.run()
        assert check_causal(recorder.history()).ok


class TestSequentialMode:
    def test_histories_are_sequential(self):
        for seed in range(3):
            history = run_workload("parametrized-sequential", seed=seed)
            assert check_sequential(history).ok


class TestCacheMode:
    def test_histories_are_cache_consistent(self):
        for seed in range(4):
            history = run_workload("parametrized-cache", seed=seed)
            assert check_cache(history).ok

    def test_per_variable_owner_is_deterministic(self):
        sim = Simulator()
        recorder = HistoryRecorder()
        system = DSMSystem(sim, "S", get("parametrized-cache"), recorder=recorder)
        a = system.add_application("A", [])
        b = system.add_application("B", [])
        sim.run()
        assert a.mcs._sequencer_of("x") == b.mcs._sequencer_of("x")
        assert a.mcs._sequencer_of("x") in system.network.node_ids

    def test_same_var_writes_converge(self):
        sim = Simulator()
        system = DSMSystem(sim, "S", get("parametrized-cache"), recorder=HistoryRecorder())
        system.add_application("A", [Write("x", 1)])
        system.add_application("B", [Write("x", 2)])
        readers = [
            system.add_application(f"R{index}", [Sleep(30.0), Read("x")]) for index in range(3)
        ]
        sim.run()
        finals = {reader.mcs.local_value("x") for reader in readers}
        assert len(finals) == 1
