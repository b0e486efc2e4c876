"""Extension experiment X7: necessity of the reliable-FIFO assumption.

Measures the §3-style violation rate when the inter-IS channel reorders,
and the value-uniqueness breakage rate when it duplicates — plus the cost
and effectiveness of the ``dedup_incoming`` hardening.
"""

from repro.errors import CheckerError

# Reuse the scenario builders from the integration test module: they are
# the canonical X7 workloads.
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from integration.test_channel_assumptions import (  # noqa: E402
    TestDuplicatingChannel as _DuplicatingScenarios,
    TestReorderingChannel as _ReorderingScenarios,
)

SEEDS = range(12)


def reordering_violation_rate():
    scenario = _ReorderingScenarios().scenario
    violations = sum(0 if scenario(seed) else 1 for seed in SEEDS)
    return violations / len(SEEDS)


def duplication_breakage_rate(dedup):
    runner = _DuplicatingScenarios().run_duplicating
    broken = 0
    effective = 0
    for seed in SEEDS:
        history, bridge = runner(dedup=dedup, seed=seed)
        if bridge.channel_ab.frames_duplicated == 0:
            continue
        effective += 1
        try:
            history.for_system("S1").validate()
        except CheckerError:
            broken += 1
    return broken, effective


def test_x7_reordering_violates_causality(benchmark):
    rate = benchmark.pedantic(reordering_violation_rate, rounds=1, iterations=1)
    print(f"\nX7a: non-FIFO inter-IS channel -> {rate:.0%} causality violations over {len(SEEDS)} seeds")
    assert rate > 0.0


def test_x7_duplication_and_dedup(benchmark):
    def both():
        return duplication_breakage_rate(False), duplication_breakage_rate(True)

    (naive_broken, naive_runs), (hardened_broken, hardened_runs) = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    print(
        f"\nX7b: at-least-once channel: naive Propagate_in broke value-uniqueness in "
        f"{naive_broken}/{naive_runs} duplicate-carrying runs; "
        f"dedup_incoming in {hardened_broken}/{hardened_runs}"
    )
    assert naive_broken > 0
    assert hardened_broken == 0
