"""Larger-scale soak runs: many systems, many processes, bigger histories.

Everything else in the suite favours small, surgical scenarios; these
runs make sure nothing degenerates at a more realistic scale (hundreds of
operations, six-system trees, heavy write contention) and that the
polynomial checker handles the resulting histories comfortably.
"""

import pytest

from repro.checker import check_causal
from repro.obs import VisibilityTracker
from repro.workloads import WorkloadSpec, build_interconnected
from repro.workloads.scenarios import run_until_quiescent


@pytest.mark.slow
class TestSoak:
    def test_six_system_chain(self):
        result = build_interconnected(
            ["vector-causal"] * 6,
            WorkloadSpec(processes=3, ops_per_process=8, write_ratio=0.5),
            topology="chain",
            seed=99,
        )
        run_until_quiescent(result.sim, result.systems)
        history = result.global_history
        assert len(history) == 6 * 3 * 8
        verdict = check_causal(history)
        assert verdict.ok, verdict.summary()

    def test_wide_star_mixed_protocols(self):
        protocols = [
            "vector-causal",
            "parametrized-causal",
            "aw-sequential",
            "partial-causal",
            "invalidation-causal",
            "precise-causal",
        ]
        result = build_interconnected(
            protocols,
            WorkloadSpec(processes=2, ops_per_process=6, write_ratio=0.5),
            topology="star",
            seed=42,
        )
        run_until_quiescent(result.sim, result.systems)
        verdict = check_causal(result.global_history)
        assert verdict.ok, verdict.summary()
        # Per-system computations too.
        for index in range(len(protocols)):
            assert check_causal(result.system_history(f"S{index}")).ok

    def test_heavy_contention_single_variable(self):
        result = build_interconnected(
            ["vector-causal", "vector-causal"],
            WorkloadSpec(
                processes=4, ops_per_process=10, write_ratio=0.6,
                variables=("hot",), max_think=0.5,
            ),
            seed=7,
        )
        run_until_quiescent(result.sim, result.systems)
        verdict = check_causal(result.global_history)
        assert verdict.ok, verdict.summary()

    def test_checker_scales_to_several_hundred_ops(self):
        result = build_interconnected(
            ["vector-causal", "vector-causal", "vector-causal"],
            WorkloadSpec(processes=5, ops_per_process=12, write_ratio=0.4),
            seed=13,
        )
        run_until_quiescent(result.sim, result.systems)
        history = result.global_history
        assert len(history) == 3 * 5 * 12
        assert check_causal(history).ok

    def test_every_write_fully_visible_at_quiescence(self):
        result = build_interconnected(
            ["vector-causal"] * 4,
            WorkloadSpec(processes=2, ops_per_process=5, write_ratio=1.0),
            topology="star",
            seed=3,
        )
        tracker = VisibilityTracker().attach_systems(result.systems)
        run_until_quiescent(result.sim, result.systems)
        writes = sum(1 for op in result.global_history if op.is_write)
        assert len(tracker.fully_visible()) == writes
