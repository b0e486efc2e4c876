"""Delta-debugging minimisation of failing tag traces.

A raw counterexample trace from the explorer records *every* decision of
the failing run, most of which are incidental. A trace is a sequence of
scheduling tags (:mod:`repro.explore.policy`), so deleting a decision
removes one event from the schedule without changing what any other
decision names. Shrinking is therefore deletion only, in two passes
repeated until neither helps:

* contiguous chunks are deleted, ddmin-style, halving the chunk size;
* pairs of decisions are deleted: two events that matter only together
  (say, the request and the response of one redundant poll) survive
  every single deletion.

Every candidate is validated by actually re-running the scenario: a
candidate is accepted iff the replay still exhibits the original failure
(same bad-pattern family). A candidate whose tag is not enabled where the
trace wants it does not replay and is rejected like a passing one.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.errors import ExplorationError, ReproError
from repro.explore.engine import Counterexample, run_with_trace


def shrink_trace(
    trace: Sequence,
    failing: Callable[[Sequence], bool],
    *,
    max_attempts: int = 4000,
) -> list:
    """Minimise *trace* while ``failing(candidate)`` stays true.

    Args:
        trace: a decision trace for which *failing* holds.
        failing: the failure predicate; must be deterministic (replay one
            scenario and inspect the verdict).
        max_attempts: cap on predicate evaluations; shrinking is greedy
            and simply stops improving once the budget runs out.

    Returns:
        the smallest failing subsequence of *trace* found.
    """
    best = list(trace)
    if not failing(best):
        raise ExplorationError("shrink_trace was given a trace that does not fail")
    attempts = 0

    def check(candidate: list) -> bool:
        nonlocal attempts
        if attempts >= max_attempts:
            return False
        attempts += 1
        return failing(candidate)

    improved = True
    while improved and attempts < max_attempts:
        improved = False
        # Pass 1: delete contiguous chunks, large to small.
        size = max(len(best) // 2, 1)
        while True:
            start = 0
            while start < len(best):
                candidate = best[:start] + best[start + size :]
                if check(candidate):
                    best = candidate
                    improved = True
                else:
                    start += size
            if size == 1:
                break
            size //= 2
        # Pass 2: delete pairs of decisions; restart on the first success.
        pairs = (
            (first, second)
            for second in range(len(best))
            for first in range(second)
        )
        for first, second in pairs:
            candidate = best[:first] + best[first + 1 : second] + best[second + 1 :]
            if check(candidate):
                best = candidate
                improved = True
                break
    return best


def shrink_counterexample(
    counterexample: Counterexample,
    factory: Optional[Callable[[], "object"]] = None,
    *,
    check_theorem1: bool = False,
    max_attempts: int = 4000,
) -> Counterexample:
    """Shrink a counterexample, preserving its violation family.

    The predicate accepts a candidate only if its replay fails with at
    least one of the original bad patterns, so shrinking cannot wander
    from, say, a causal-order cycle to an unrelated deadlock.
    """
    if factory is None:
        from repro.explore.scenarios import get_scenario

        factory = get_scenario(counterexample.scenario).factory
    wanted = set(counterexample.patterns)

    def failing(candidate: Sequence[Optional[str]]) -> bool:
        try:
            result, verdict = run_with_trace(
                factory, candidate, check_theorem1=check_theorem1
            )
        except ReproError:
            return False
        result.close()
        if verdict.ok:
            return False
        if not wanted:
            return True
        return bool({v.pattern for v in verdict.violations} & wanted)

    trace = shrink_trace(
        counterexample.trace, failing, max_attempts=max_attempts
    )
    result, verdict = run_with_trace(
        factory, trace, check_theorem1=check_theorem1
    )
    result.close()
    return Counterexample(
        scenario=counterexample.scenario,
        trace=trace,
        patterns=[v.pattern for v in verdict.violations],
        detail=verdict.violations[0].detail if verdict.violations else "",
        shrunk_from=len(counterexample.trace),
    )


__all__ = ["shrink_trace", "shrink_counterexample"]
