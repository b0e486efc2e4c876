"""E10 (§1.1): two sequential systems interconnect into a causal system —
which is, in general, no longer sequential."""

from repro.checker import check_causal, check_sequential
from repro.experiments import sequential_bridge_dekker
from repro.workloads import WorkloadSpec, build_interconnected
from repro.workloads.scenarios import run_until_quiescent


class TestSequentialBridge:
    def test_union_of_sequential_systems_is_causal(self):
        for seed in range(4):
            result = build_interconnected(
                ["aw-sequential", "aw-sequential"],
                WorkloadSpec(processes=2, ops_per_process=5),
                seed=seed,
            )
            run_until_quiescent(result.sim, result.systems)
            verdict = check_causal(result.global_history)
            assert verdict.ok, verdict.summary()

    def test_union_is_not_sequential_in_general(self):
        # Dekker-style cross-system race: each side writes its flag and
        # immediately reads the other's. Propagation across the bridge
        # takes several hops, so both reads return the initial value —
        # impossible under sequential consistency.
        causal, sequential = sequential_bridge_dekker()
        assert causal
        assert not sequential

    def test_each_system_remains_sequential_locally(self):
        result = build_interconnected(
            ["aw-sequential", "aw-sequential"],
            WorkloadSpec(processes=2, ops_per_process=4),
            seed=7,
        )
        run_until_quiescent(result.sim, result.systems)
        # A system's own computation (application ops of that system plus
        # the IS-process writes it performed) stays sequential: the local
        # MCS protocol enforces it regardless of the interconnection.
        for name in ("S0", "S1"):
            verdict = check_sequential(result.system_history(name))
            assert verdict.ok, f"{name}: {verdict.summary()}"

    def test_sequential_bridged_with_causal(self):
        result = build_interconnected(
            ["aw-sequential", "vector-causal"],
            WorkloadSpec(processes=2, ops_per_process=5),
            seed=3,
        )
        run_until_quiescent(result.sim, result.systems)
        assert check_causal(result.global_history).ok
