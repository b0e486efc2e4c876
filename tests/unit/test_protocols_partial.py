"""Unit tests for the partial-replication causal protocol."""

import pytest

from repro.checker import check_causal
from repro.errors import ConfigurationError
from repro.memory.program import Read, Sleep, Write
from repro.memory.recorder import HistoryRecorder
from repro.memory.system import DSMSystem
from repro.protocols import get
from repro.protocols.partial import PartialUpdate, WriteNotice
from repro.sim.core import Simulator
from repro.obs import TrafficMeter
from repro.workloads import WorkloadSpec, populate_system
from repro.workloads.scenarios import run_until_quiescent


def make_system(replication_factor=2, seed=0):
    sim = Simulator()
    recorder = HistoryRecorder()
    spec = get("partial-causal").with_options(replication_factor=replication_factor)
    system = DSMSystem(sim, "S", spec, recorder=recorder, seed=seed)
    return sim, recorder, system


class TestPlacement:
    def test_replica_set_size(self):
        sim, _, system = make_system(replication_factor=2)
        apps = [system.add_application(f"p{index}", []) for index in range(5)]
        holders = apps[0].mcs.holders_of("x")
        assert len(holders) == 2

    def test_placement_agreed_by_all(self):
        sim, _, system = make_system()
        apps = [system.add_application(f"p{index}", []) for index in range(4)]
        reference = apps[0].mcs.holders_of("x")
        assert all(app.mcs.holders_of("x") == reference for app in apps)

    def test_different_variables_spread(self):
        sim, _, system = make_system(replication_factor=1)
        apps = [system.add_application(f"p{index}", []) for index in range(6)]
        holder_sets = {tuple(apps[0].mcs.holders_of(var)) for var in "abcdefgh"}
        assert len(holder_sets) > 1

    def test_factor_capped_at_node_count(self):
        sim, _, system = make_system(replication_factor=50)
        apps = [system.add_application(f"p{index}", []) for index in range(3)]
        assert len(apps[0].mcs.holders_of("x")) == 3

    def test_invalid_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            sim, _, system = make_system(replication_factor=0)
            system.add_application("p0", [])

    def test_interconnect_nodes_hold_everything(self):
        from repro.interconnect.bridge import connect

        sim = Simulator()
        recorder = HistoryRecorder()
        s0 = DSMSystem(
            sim, "S0", get("partial-causal").with_options(replication_factor=1),
            recorder=recorder,
        )
        s1 = DSMSystem(sim, "S1", get("vector-causal"), recorder=recorder)
        apps = [s0.add_application(f"p{index}", []) for index in range(4)]
        bridge = connect(s0, s1)
        for var in ("x", "y", "z", "w"):
            assert bridge.isp_a.mcs.name in apps[0].mcs.holders_of(var)
            assert bridge.isp_a.mcs.holds(var)


class TestReadsAndWrites:
    def test_holder_reads_locally(self):
        sim, recorder, system = make_system(replication_factor=10)  # everyone holds
        system.add_application("p0", [Write("x", 1), Read("x")])
        system.add_application("p1", [])
        sim.run()
        read = recorder.history().operations[-1]
        assert read.value == 1
        assert read.response_time == read.issue_time  # local

    def test_remote_read_blocks_and_returns_value(self):
        sim, recorder, system = make_system(replication_factor=1)
        apps = [system.add_application(f"p{index}", []) for index in range(4)]
        # Find a process that does NOT hold x and make it read after a
        # holder wrote.
        holder_name = apps[0].mcs.holders_of("x")[0]
        holder = next(app for app in apps if app.mcs.name == holder_name)
        non_holder = next(app for app in apps if app.mcs.name != holder_name)
        sim2, recorder2, system2 = make_system(replication_factor=1, seed=1)
        writer = system2.add_application("writer", [Write("x", 7)])
        readers = [
            system2.add_application(f"reader{index}", [Sleep(10.0), Read("x")])
            for index in range(3)
        ]
        sim2.run()
        values = {
            op.value
            for op in recorder2.history()
            if op.is_read
        }
        assert values == {7}
        assert any(app.mcs.remote_reads > 0 for app in system2.app_processes)

    def test_remote_read_has_nonzero_response_time(self):
        sim, recorder, system = make_system(replication_factor=1, seed=2)
        system.add_application("writer", [Write("x", 1)])
        for index in range(3):
            system.add_application(f"reader{index}", [Sleep(5.0), Read("x")])
        sim.run()
        remote = [
            op
            for op, app in (
                (op, None) for op in recorder.history() if op.is_read
            )
            if op.response_time > op.issue_time
        ]
        assert remote  # at least one reader was not a holder

    def test_write_by_non_holder_propagates(self):
        sim, recorder, system = make_system(replication_factor=1, seed=3)
        apps = [system.add_application(f"p{index}", []) for index in range(4)]
        holder = apps[0].mcs.holders_of("q")[0]
        writer = next(app for app in apps if app.mcs.name != holder)
        holder_app = next(app for app in apps if app.mcs.name == holder)
        writer.mcs.issue_write("q", 42, lambda: None)
        sim.run()
        assert holder_app.mcs.local_value("q") == 42
        assert not writer.mcs.holds("q")


class TestMessageEconomics:
    def test_values_only_to_holders_notices_to_rest(self):
        sim, _, system = make_system(replication_factor=2, seed=4)
        meter = TrafficMeter().attach(system.network)
        system.add_application("p0", [Write("x", 1)])
        for index in range(1, 6):
            system.add_application(f"p{index}", [])
        sim.run()
        # 6 nodes, factor 2: value messages to holders other than self,
        # notices to everyone else; total fan-out is always n - 1.
        assert meter.by_kind["PartialUpdate"] + meter.by_kind["WriteNotice"] == 5
        assert 1 <= meter.by_kind["PartialUpdate"] <= 2
        assert meter.by_kind["WriteNotice"] >= 3

    def test_notice_counter(self):
        sim, _, system = make_system(replication_factor=1, seed=5)
        system.add_application("p0", [Write("x", 1)])
        others = [system.add_application(f"p{index}", []) for index in range(1, 4)]
        sim.run()
        assert sum(app.mcs.notices_applied for app in system.app_processes) >= 2


class TestCausality:
    def test_random_workloads_are_causal(self):
        for seed in range(5):
            sim, recorder, system = make_system(replication_factor=2, seed=seed)
            populate_system(
                system,
                WorkloadSpec(processes=4, ops_per_process=7, write_ratio=0.5),
                seed=seed,
            )
            run_until_quiescent(sim, [system])
            verdict = check_causal(recorder.history())
            assert verdict.ok, f"seed {seed}: {verdict.summary()}"

    def test_single_copy_workloads_are_causal(self):
        for seed in range(5):
            sim, recorder, system = make_system(replication_factor=1, seed=seed + 50)
            populate_system(
                system,
                WorkloadSpec(processes=4, ops_per_process=6, write_ratio=0.5),
                seed=seed,
            )
            run_until_quiescent(sim, [system])
            assert check_causal(recorder.history()).ok

    def test_transitive_dependency_respected(self):
        sim, recorder, system = make_system(replication_factor=10, seed=6)
        writer = system.add_application("A", [Write("x", 1)])

        def relay():
            while True:
                value = yield Read("x")
                if value == 1:
                    break
                yield Sleep(0.5)
            yield Write("y", 2)

        system.add_application("B", relay())
        program = []
        for _ in range(30):
            program += [Read("y"), Read("x"), Sleep(1.0)]
        observer = system.add_application("C", program)
        system.network.set_delay(writer.mcs.name, observer.mcs.name, 20.0)
        sim.run()
        assert check_causal(recorder.history()).ok
