"""Extension experiment X7: necessity of the reliable-FIFO assumption.

Measures the §3-style violation rate when the inter-IS channel reorders,
and the value-uniqueness breakage rate when it duplicates — plus the cost
and effectiveness of the ``dedup_incoming`` hardening.
"""

from repro.experiments import (
    CHANNEL_SEEDS as SEEDS,
    duplication_breakage_rate,
    reordering_violation_rate,
)


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
