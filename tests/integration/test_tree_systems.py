"""Corollary 1 (E7): any number of causal systems interconnected as a tree
form a causal system — stars, chains, mixed shapes, both IS-process modes."""

import pytest

from repro.checker import check_causal
from repro.workloads import WorkloadSpec, build_interconnected
from repro.workloads.scenarios import run_until_quiescent

SPEC = WorkloadSpec(processes=2, ops_per_process=4, write_ratio=0.5)


class TestCorollary1:
    @pytest.mark.parametrize("count", [3, 4, 5])
    @pytest.mark.parametrize("topology", ["star", "chain"])
    def test_homogeneous_trees_are_causal(self, count, topology):
        result = build_interconnected(
            ["vector-causal"] * count, SPEC, topology=topology, seed=count
        )
        run_until_quiescent(result.sim, result.systems)
        verdict = check_causal(result.global_history)
        assert verdict.ok, verdict.summary()

    @pytest.mark.parametrize("shared", [True, False])
    def test_both_is_process_modes(self, shared):
        result = build_interconnected(
            ["vector-causal"] * 4, SPEC, topology="star", shared=shared, seed=8
        )
        run_until_quiescent(result.sim, result.systems)
        assert check_causal(result.global_history).ok

    def test_large_chain_of_five(self):
        # 720 operations across five per-edge bridged systems, the size
        # of the chain the perf suite's causality_chain5_large case times.
        spec = WorkloadSpec(processes=6, ops_per_process=24, write_ratio=0.5)
        result = build_interconnected(
            ["vector-causal"] * 5, spec, topology="chain", shared=False, seed=0
        )
        run_until_quiescent(result.sim, result.systems)
        assert check_causal(result.global_history).ok

    def test_mixed_protocol_tree(self):
        result = build_interconnected(
            ["vector-causal", "parametrized-causal", "aw-sequential", "delayed-causal"],
            SPEC,
            topology="star",
            seed=13,
        )
        run_until_quiescent(result.sim, result.systems)
        assert check_causal(result.global_history).ok

    def test_custom_tree_shape(self):
        #       0
        #      / \
        #     1   2
        #        / \
        #       3   4
        result = build_interconnected(
            ["vector-causal"] * 5,
            SPEC,
            edges=[(0, 1), (0, 2), (2, 3), (2, 4)],
            seed=21,
        )
        run_until_quiescent(result.sim, result.systems)
        assert check_causal(result.global_history).ok

    def test_values_flood_the_whole_tree(self):
        result = build_interconnected(
            ["vector-causal"] * 4,
            WorkloadSpec(processes=1, ops_per_process=3, write_ratio=1.0),
            topology="chain",
            seed=6,
        )
        run_until_quiescent(result.sim, result.systems)
        history = result.history
        for origin_index in range(4):
            origin_values = {
                op.value
                for op in history
                if op.is_write and not op.is_interconnect and op.system == f"S{origin_index}"
            }
            for other_index in range(4):
                if other_index == origin_index:
                    continue
                propagated = {
                    op.value
                    for op in history
                    if op.is_write and op.is_interconnect and op.system == f"S{other_index}"
                }
                assert origin_values <= propagated, (
                    f"values written in S{origin_index} never reached S{other_index}"
                )

    def test_per_system_computations_causal_in_tree(self):
        result = build_interconnected(
            ["vector-causal"] * 3, SPEC, topology="chain", seed=17
        )
        run_until_quiescent(result.sim, result.systems)
        for index in range(3):
            assert check_causal(result.system_history(f"S{index}")).ok
