"""E1–E5: the §6 performance model holds exactly in the simulator.

The vector-clock causal protocol matches the paper's cost assumptions
(x - 1 messages per write, none per read), so measured counts must equal
the closed forms *exactly*, not just approximately.
"""

import pytest

from repro.analysis import (
    bottleneck_crossings_flat,
    bottleneck_crossings_interconnected,
    chain_worst_latency,
    flat_messages_per_write,
    interconnected_messages_per_write,
    star_worst_latency,
)
from repro.experiments import (
    crossings_per_write_bridged,
    crossings_per_write_flat,
    latency_tree,
    response_stats,
)
from repro.interconnect.topology import interconnect
from repro.memory.program import Write
from repro.memory.recorder import HistoryRecorder
from repro.memory.system import DSMSystem
from repro.obs import TrafficMeter, VisibilityTracker
from repro.protocols import get
from repro.sim.core import Simulator
from repro.workloads import WorkloadSpec, populate_system
from repro.workloads.scenarios import build_interconnected, run_until_quiescent

WRITES_ONLY = WorkloadSpec(processes=3, ops_per_process=4, write_ratio=1.0)


def count_app_writes(history):
    return sum(1 for op in history.without_interconnect() if op.is_write)


class TestE1FlatMessageCount:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_flat_system_n_minus_1(self, n):
        sim = Simulator()
        recorder = HistoryRecorder()
        system = DSMSystem(sim, "S", get("vector-causal"), recorder=recorder, seed=n)
        populate_system(system, WorkloadSpec(processes=n, ops_per_process=3, write_ratio=1.0), seed=n)
        run_until_quiescent(sim, [system])
        writes = count_app_writes(recorder.history())
        assert system.network.messages_sent == writes * flat_messages_per_write(n)


class TestE2InterconnectedMessageCount:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_shared_is_processes_n_plus_m_minus_1(self, m):
        result = build_interconnected(
            ["vector-causal"] * m, WRITES_ONLY, topology="star", shared=True, seed=m
        )
        run_until_quiescent(result.sim, result.systems)
        writes = count_app_writes(result.history)
        n = result.interconnection.total_app_mcs
        measured = result.interconnection.intra_system_messages + (
            result.interconnection.inter_system_messages
        )
        assert measured == writes * interconnected_messages_per_write(n, m, shared=True)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_per_edge_is_processes_n_plus_2m_minus_3(self, m):
        result = build_interconnected(
            ["vector-causal"] * m, WRITES_ONLY, topology="chain", shared=False, seed=m
        )
        run_until_quiescent(result.sim, result.systems)
        writes = count_app_writes(result.history)
        n = result.interconnection.total_app_mcs
        measured = result.interconnection.intra_system_messages + (
            result.interconnection.inter_system_messages
        )
        assert measured == writes * interconnected_messages_per_write(n, m, shared=False)

    def test_interconnection_beats_flat_split_on_the_link_not_total(self):
        # §6: total message count is slightly higher interconnected
        # (n + m - 1 > n - 1) — the win is on the bottleneck link (E3).
        n, m = 6, 2
        assert interconnected_messages_per_write(n, m) > flat_messages_per_write(n)


class TestE3BottleneckLink:
    def test_flat_split_system_crossings(self):
        # Flat system of 6, half on each LAN: every write crosses 3 times.
        sim = Simulator()
        recorder = HistoryRecorder()
        system = DSMSystem(sim, "S", get("vector-causal"), recorder=recorder, seed=0)
        meter = TrafficMeter().attach(system.network)
        populate_system(
            system,
            WorkloadSpec(processes=6, ops_per_process=3, write_ratio=1.0),
            seed=0,
            segments=["lan0", "lan1"],
        )
        run_until_quiescent(sim, [system])
        writes = count_app_writes(recorder.history())
        assert meter.crossings("lan0", "lan1") == writes * bottleneck_crossings_flat(3)

    def test_interconnected_single_crossing(self):
        # Two systems of 3, one per LAN: each write crosses exactly once.
        sim = Simulator()
        recorder = HistoryRecorder()
        systems = []
        for index in range(2):
            system = DSMSystem(
                sim, f"S{index}", get("vector-causal"), recorder=recorder, seed=index
            )
            populate_system(
                system,
                WorkloadSpec(processes=3, ops_per_process=3, write_ratio=1.0),
                seed=index * 7,
            )
            systems.append(system)
        connection = interconnect(systems, delay=1.0)
        run_until_quiescent(sim, systems)
        writes = count_app_writes(recorder.history())
        assert connection.inter_system_messages == writes * bottleneck_crossings_interconnected()

    def test_six_per_side(self):
        # E3's table shows 2, 4 and 8 per side.
        assert crossings_per_write_flat(6) == bottleneck_crossings_flat(6)
        assert crossings_per_write_bridged(6) == bottleneck_crossings_interconnected()


class TestE4Latency:
    # One writer in a leaf (S1 of a star, S0 of a chain), silent probes
    # everywhere else: repro.experiments.latency_tree.

    def test_star_per_edge_matches_3l_plus_2d(self):
        l, d, m = 2.0, 5.0, 4
        assert latency_tree(m, "star", False, l, d) == star_worst_latency(l, d, m)

    def test_star_shared_is_faster_than_the_model(self):
        # The shared IS-process forwards pairs on receipt, skipping one
        # hub-internal propagation: 2l + 2d instead of 3l + 2d.
        l, d, m = 2.0, 5.0, 4
        worst = latency_tree(m, "star", True, l, d)
        assert worst == 2 * l + 2 * d
        assert worst < star_worst_latency(l, d, m)

    def test_flat_latency_is_l(self):
        sim = Simulator()
        recorder = HistoryRecorder()
        system = DSMSystem(
            sim, "S", get("vector-causal"), recorder=recorder, default_delay=2.0
        )
        system.add_application("writer", [Write("x", 1)])
        system.add_application("probe", [])
        tracker = VisibilityTracker().attach_systems([system])
        run_until_quiescent(sim, [system])
        assert tracker.worst_latency() == 2.0

    def test_chain_per_edge_matches_ml_plus_m1d(self):
        # E4's table shows chains of 3 and 5 at l=2, d=5.
        l, d = 1.0, 3.0
        for m in (2, 4, 6):
            assert latency_tree(m, "chain", False, l, d) == chain_worst_latency(l, d, m)


class TestE5ResponseTime:
    def test_interconnection_does_not_change_response_times(self):
        flat = build_interconnected(["vector-causal"], WRITES_ONLY, seed=5)
        run_until_quiescent(flat.sim, flat.systems)
        flat_stats = response_stats(flat.systems)

        bridged = build_interconnected(["vector-causal", "vector-causal"], WRITES_ONLY, seed=5)
        run_until_quiescent(bridged.sim, bridged.systems)
        bridged_stats = response_stats(bridged.systems)

        assert flat_stats.mean == bridged_stats.mean == 0.0
        assert flat_stats.maximum == bridged_stats.maximum == 0.0
