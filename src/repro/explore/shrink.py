"""Delta-debugging minimisation of failing decision traces.

A raw counterexample trace from the explorer records *every* decision of
the failing run, most of which are incidental. Shrinking reduces it along
four axes:

* trailing default decisions (zeros) are dropped for free — the replay
  policy falls back to candidate 0 beyond its prefix anyway;
* contiguous chunks are deleted, ddmin-style, halving the chunk size;
* individual decisions are lowered toward 0 (the canonical choice);
* single *events* are dropped from the schedule
  (:func:`shrink_counterexample` only): the trace is read as the
  sequence of scheduling tags it picks, one tag is removed, and the rest
  are picked by tag rather than by index. Deleting an index shifts the
  meaning of every later one; deleting a tag does not, which is what
  removes a whole redundant poll loop from a trace.

Every candidate is validated by actually re-running the scenario: a
candidate is accepted iff the replay still exhibits the original failure
(same bad-pattern family). Deleting a decision shifts the meaning of all
later ones — that is fine; delta debugging relies only on the predicate,
never on positional semantics of the trace.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.errors import ExplorationError, ReproError
from repro.explore.engine import Counterexample, run_with_trace
from repro.explore.policy import TracePolicy
from repro.sim.core import EnabledEvent


def _strip(trace: list[int]) -> list[int]:
    """Drop trailing zeros: they repeat the replay policy's default."""
    end = len(trace)
    while end > 0 and trace[end - 1] == 0:
        end -= 1
    return trace[:end]


def shrink_trace(
    trace: Sequence[int],
    failing: Callable[[Sequence[int]], bool],
    *,
    max_attempts: int = 4000,
) -> list[int]:
    """Minimise *trace* while ``failing(candidate)`` stays true.

    Args:
        trace: a decision trace for which *failing* holds.
        failing: the failure predicate; must be deterministic (replay one
            scenario and inspect the verdict).
        max_attempts: cap on predicate evaluations; shrinking is greedy
            and simply stops improving once the budget runs out.

    Returns:
        the smallest failing trace found (lexicographically smallest among
        equals, by construction of the lowering pass).
    """
    attempts = 0

    def check(candidate: list[int]) -> bool:
        nonlocal attempts
        if attempts >= max_attempts:
            return False
        attempts += 1
        return failing(candidate)

    best = _strip(list(trace))
    if not check(best):
        if not failing(list(trace)):
            raise ExplorationError(
                "shrink_trace was given a trace that does not fail"
            )
        best = list(trace)  # the trailing zeros mattered after all

    improved = True
    while improved and attempts < max_attempts:
        improved = False
        # Pass 1: delete contiguous chunks, large to small.
        size = max(len(best) // 2, 1)
        while size >= 1:
            start = 0
            while start < len(best):
                candidate = _strip(best[:start] + best[start + size :])
                if len(candidate) < len(best) and check(candidate):
                    best = candidate
                    improved = True
                else:
                    start += size
            if size == 1:
                break
            size //= 2
        # Pass 2: delete-and-repair. Removing one decision shifts the
        # meaning of everything after it, which plain deletion (pass 1)
        # often cannot absorb; re-choosing the value at the deletion
        # site frequently can. Values range over the arities seen so
        # far — candidate lists in these scenarios are small.
        max_value = max(best, default=0) + 1
        index = 0
        while index < len(best):
            shortened = False
            for value in range(max_value + 1):
                candidate = _strip(
                    best[:index] + [value] + best[index + 2 :]
                )
                if len(candidate) < len(best) and check(candidate):
                    best = candidate
                    improved = True
                    shortened = True
                    break
            if not shortened:
                index += 1
        # Pass 3: lower decisions toward the canonical choice 0.
        index = 0
        while index < len(best):
            original = best[index]
            lowered = False
            for lower in range(original):
                candidate = _strip(
                    best[:index] + [lower] + best[index + 1 :]
                )
                if check(candidate):
                    best = candidate
                    improved = True
                    lowered = True
                    break
            if not lowered:
                index += 1
            # else: the strip may have shortened the trace; re-scan from
            # the same index, which now holds a different decision.
    return best


class _TagPolicy(TracePolicy):
    """Pick, at each decision, the candidate carrying the next wanted tag;
    raise :class:`ExplorationError` if it is not enabled."""

    def __init__(self, tags: Sequence[Optional[str]]) -> None:
        super().__init__()
        self.wanted = list(tags)

    def _default_choice(
        self, position: int, candidates: Sequence[EnabledEvent]
    ) -> int:
        if position >= len(self.wanted):
            return 0
        for index, candidate in enumerate(candidates):
            if candidate.tag == self.wanted[position]:
                return index
        raise ExplorationError(f"tag {self.wanted[position]!r} not enabled")


def _replay(factory: Callable[[], "object"], policy: TracePolicy, max_steps: int) -> None:
    result = factory()
    result.sim.policy = policy
    result.sim.run(max_events=max_steps)


def _drop_one_event(
    trace: list[int],
    failing: Callable[[Sequence[int]], bool],
    factory: Callable[[], "object"],
    max_steps: int,
) -> Optional[list[int]]:
    """A shorter failing trace that schedules one event fewer, or None."""
    recorder = TracePolicy(trace)
    _replay(factory, recorder, max_steps)
    tags = [point.tags[point.chosen] for point in recorder.decisions[: len(trace)]]
    for index in range(len(tags)):
        policy = _TagPolicy(tags[:index] + tags[index + 1 :])
        try:
            _replay(factory, policy, max_steps)
        except ReproError:
            continue
        candidate = _strip(policy.trace[: len(policy.wanted)])
        if len(candidate) < len(trace) and failing(candidate):
            return candidate
    return None


def shrink_counterexample(
    counterexample: Counterexample,
    factory: Optional[Callable[[], "object"]] = None,
    *,
    check_theorem1: bool = False,
    max_attempts: int = 4000,
    max_steps: int = 100_000,
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

    def failing(candidate: Sequence[int]) -> bool:
        try:
            _, verdict = run_with_trace(
                factory,
                candidate,
                max_steps=max_steps,
                check_theorem1=check_theorem1,
            )
        except ReproError:
            return False
        if verdict.ok:
            return False
        if not wanted:
            return True
        return bool({v.pattern for v in verdict.violations} & wanted)

    trace = shrink_trace(
        counterexample.trace, failing, max_attempts=max_attempts
    )
    while (shorter := _drop_one_event(trace, failing, factory, max_steps)) is not None:
        trace = shrink_trace(shorter, failing, max_attempts=max_attempts)
    _, verdict = run_with_trace(
        factory, trace, max_steps=max_steps, check_theorem1=check_theorem1
    )
    return Counterexample(
        scenario=counterexample.scenario,
        trace=trace,
        patterns=[v.pattern for v in verdict.violations],
        detail=verdict.violations[0].detail if verdict.violations else "",
        shrunk_from=len(counterexample.trace),
    )


__all__ = ["shrink_trace", "shrink_counterexample"]
