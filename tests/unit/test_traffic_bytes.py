"""Unit tests for byte-level traffic accounting and hybrid workloads."""

from repro.memory.program import Sleep, Write
from repro.memory.recorder import HistoryRecorder
from repro.memory.system import DSMSystem
from repro.obs import MESSAGE_OVERHEAD_BYTES, TrafficMeter, estimate_bytes
from repro.protocols import get
from repro.protocols.messages import CausalUpdate
from repro.sim.clock import VectorClock
from repro.sim.core import Simulator


class TestEstimateBytes:
    def test_scalars(self):
        assert estimate_bytes(None) == 0
        assert estimate_bytes(True) == 1
        assert estimate_bytes(7) == 8
        assert estimate_bytes(3.14) == 8
        assert estimate_bytes("abcd") == 4
        assert estimate_bytes(b"abc") == 3

    def test_vector_clock_scales_with_entries(self):
        small = estimate_bytes(VectorClock({0: 1}))
        big = estimate_bytes(VectorClock({0: 1, 1: 2, 2: 3}))
        assert big == 3 * small

    def test_dataclass_sums_fields(self):
        update = CausalUpdate(
            var="x", value="hello", ts=VectorClock({0: 1}), sender_index=0, sender_name="p",
        )
        expected = 1 + 5 + 16 + 8 + 1  # var + value + clock + index + name
        assert estimate_bytes(update) == expected

    def test_containers(self):
        assert estimate_bytes([1, 2]) == 16
        assert estimate_bytes({"k": 1}) == 1 + 8


class TestByteMeter:
    def run_with_meter(self, protocol, value):
        sim = Simulator()
        system = DSMSystem(sim, "S", get(protocol), recorder=HistoryRecorder(), seed=0)
        meter = TrafficMeter().attach(system.network)
        system.add_application("A", [Write("x", value)])
        for index in range(3):
            system.add_application(f"p{index}", [Sleep(20.0)])
        sim.run()
        return meter

    def test_bytes_counted_per_kind(self):
        meter = self.run_with_meter("vector-causal", "v" * 100)
        assert meter.total_bytes > 0
        assert meter.by_kind_bytes["CausalUpdate"] == meter.total_bytes

    def test_value_size_visible_in_bytes_not_counts(self):
        small = self.run_with_meter("vector-causal", "v")
        large = self.run_with_meter("vector-causal", "v" * 500)
        assert small.total == large.total
        assert large.total_bytes > small.total_bytes + 3 * 400

    def test_invalidation_messages_are_small(self):
        # An invalidation carries no value: its wire size must not grow
        # with the written value.
        small = self.run_with_meter("invalidation-causal", "v")
        large = self.run_with_meter("invalidation-causal", "v" * 500)
        assert large.by_kind_bytes["Invalidation"] == small.by_kind_bytes["Invalidation"]

    def test_invalidation_saves_bytes_on_large_values(self):
        # X2: a 4 KiB value that nobody reads crosses the network only
        # under propagation; invalidations carry timestamps, not payloads.
        invalidation = self.run_with_meter("invalidation-causal", "x" * 4096)
        propagation = self.run_with_meter("vector-causal", "x" * 4096)
        assert invalidation.total_bytes < propagation.total_bytes / 10

    def test_overhead_charged_per_message(self):
        meter = self.run_with_meter("vector-causal", "v")
        assert meter.total_bytes >= meter.total * MESSAGE_OVERHEAD_BYTES


class TestHybridWorkloads:
    def test_strong_ratio_generates_strong_writes(self):
        import random

        from repro.workloads import ValueFactory, WorkloadSpec
        from repro.workloads.generator import random_program

        spec = WorkloadSpec(ops_per_process=40, write_ratio=1.0, strong_ratio=0.5, max_think=0)
        program = random_program(random.Random(0), spec, ValueFactory(), "p")
        strong = sum(1 for command in program if command.strong)
        assert 5 < strong < 35

    def test_hybrid_random_workload_with_strong_ops_is_causal(self):
        from repro.checker import check_causal
        from repro.workloads import WorkloadSpec, populate_system
        from repro.workloads.scenarios import run_until_quiescent

        for seed in range(3):
            sim = Simulator()
            recorder = HistoryRecorder()
            system = DSMSystem(sim, "S", get("hybrid"), recorder=recorder, seed=seed)
            populate_system(
                system,
                WorkloadSpec(processes=3, ops_per_process=6, write_ratio=0.6, strong_ratio=0.4),
                seed=seed,
            )
            run_until_quiescent(sim, [system])
            assert check_causal(recorder.history()).ok
            logs = [app.mcs.strong_apply_log for app in system.app_processes]
            assert all(log == logs[0] for log in logs)
