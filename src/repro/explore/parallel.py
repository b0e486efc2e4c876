"""Multi-core exploration over disjoint subtree work-units.

The stateless design of :mod:`repro.explore.engine` makes the DFS
embarrassingly parallel: a decision-trace prefix fully identifies a
subtree, workers rebuild the scenario from its registered factory, and
no live object ever crosses a process boundary — only prefixes, sleep
sets and result counts.

Strategy (deterministic by construction):

1. **Bootstrap** — run the classic sequential loop in the parent until
   the branch stack holds at least :data:`UNIT_TARGET` entries. The
   bootstrap is a pure function of the scenario (it does not depend on
   the worker count), so the resulting work-units — the remaining stack
   entries — are identical for every ``--jobs N``.
2. **Fan out** — each unit (prefix + sleep set) is explored to
   completion in a worker with a *fresh* visited-fingerprint table
   seeded from a snapshot of the bootstrap table. Units never share
   discoveries, so a unit's outcome is a pure function of the unit.
3. **Merge** — per-unit :class:`~repro.explore.engine.ExploreResult`\\ s
   are folded in bootstrap stack order (the order the sequential search
   would have reached them).

Determinism contract: for a fixed scenario and budget, **every field of
the merged result — explored / pruned / truncated counts, exhaustion,
the violation list and the terminal-history set — is identical for all ``--jobs N`` with N ≥ 2**,
because neither the bootstrap nor any unit sees N. Single-process mode
(``--jobs 1``) routes to the classic sequential engine and stays
bit-for-bit identical to it. Parallel totals may differ from sequential
totals (cross-subtree fingerprint hits are rediscovered per unit —
strictly more work, never less coverage), but verdicts, exhaustion and,
for an exhausted search, the distinct terminal histories agree; the CI
smoke certifies this on the bridge scenarios.

Workers are forked, not spawned: :func:`repro.explore.fingerprint.
state_fingerprint` uses the interpreter's salted ``hash``, and a forked
child inherits the salt, keeping the seeded visited tables meaningful.
On platforms without ``fork`` the engine falls back to sequential
exploration (with a log notice) rather than produce unseeded tables.
"""

from __future__ import annotations

import logging
import multiprocessing
import time
from typing import Callable, Optional

from repro.errors import ExplorationError
from repro.explore.engine import (
    ExploreResult,
    REDUCTIONS,
    _Branch,
    _dfs,
    _emit_metrics,
    explore,
)

logger = logging.getLogger(__name__)

#: Bootstrap until the frontier holds this many branches. Fixed (never a
#: function of the worker count) so that work-units — and therefore every
#: merged count — are identical for any jobs >= 2.
UNIT_TARGET = 32


def _run_unit(packed):
    """Explore one subtree work-unit to completion (worker side)."""
    (
        scenario,
        prefix,
        sleep,
        base_visited,
        max_interleavings,
        max_decisions,
        max_steps,
        reduction,
        check_theorem1,
        stop_after,
    ) = packed
    from repro.explore.scenarios import get_scenario

    factory = get_scenario(scenario).factory
    outcome = ExploreResult(scenario=scenario)
    visited = {key: list(value) for key, value in base_visited.items()}
    stack = [_Branch(prefix=tuple(prefix), sleep=frozenset(sleep))]
    budget_hit, leftover = _dfs(
        scenario,
        factory,
        outcome,
        stack,
        visited,
        max_interleavings=max_interleavings,
        max_decisions=max_decisions,
        max_steps=max_steps,
        reduction=reduction,
        check_theorem1=check_theorem1,
        stop_after=stop_after,
        on_progress=None,
    )
    return outcome, budget_hit or bool(leftover)


def explore_parallel(
    scenario: str,
    *,
    jobs: int,
    max_interleavings: int = 20_000,
    max_decisions: Optional[int] = 128,
    max_steps: int = 100_000,
    reduction: str = "sleep",
    check_theorem1: bool = False,
    stop_after: Optional[int] = 1,
    on_progress: Optional[Callable[[ExploreResult], None]] = None,
    metrics=None,
) -> ExploreResult:
    """Explore *scenario* across *jobs* worker processes.

    Accepts the same knobs as :func:`repro.explore.engine.explore`, with
    two deliberate semantic shifts in parallel mode:

    * ``max_interleavings`` applies to the bootstrap and to **each
      work-unit independently** (a shared counter would make totals a
      race on worker scheduling);
    * ``stop_after`` is likewise unit-local: a unit stops once it found
      that many violations, and the merged list concatenates all units'
      finds in deterministic unit order.

    ``jobs <= 1`` delegates to the sequential engine unchanged.
    """
    if jobs <= 1:
        return explore(
            scenario,
            max_interleavings=max_interleavings,
            max_decisions=max_decisions,
            max_steps=max_steps,
            reduction=reduction,
            check_theorem1=check_theorem1,
            stop_after=stop_after,
            on_progress=on_progress,
            metrics=metrics,
        )
    if reduction not in REDUCTIONS:
        raise ExplorationError(
            f"unknown reduction {reduction!r}; pick one of {REDUCTIONS}"
        )
    if "fork" not in multiprocessing.get_all_start_methods():
        logger.warning(
            "fork start method unavailable; falling back to sequential "
            "exploration of %r",
            scenario,
        )
        return explore(
            scenario,
            max_interleavings=max_interleavings,
            max_decisions=max_decisions,
            max_steps=max_steps,
            reduction=reduction,
            check_theorem1=check_theorem1,
            stop_after=stop_after,
            on_progress=on_progress,
            metrics=metrics,
        )

    from repro.explore.scenarios import get_scenario

    factory = get_scenario(scenario).factory
    started_at = time.perf_counter()
    outcome = ExploreResult(scenario=scenario)
    visited: dict[int, list[frozenset[str]]] = {}
    stack: list[_Branch] = [_Branch(prefix=(), sleep=frozenset())]
    logger.debug(
        "exploring %r in parallel (jobs=%d, reduction=%s)",
        scenario,
        jobs,
        reduction,
    )
    bootstrap_budget_hit, stack = _dfs(
        scenario,
        factory,
        outcome,
        stack,
        visited,
        max_interleavings=max_interleavings,
        max_decisions=max_decisions,
        max_steps=max_steps,
        reduction=reduction,
        check_theorem1=check_theorem1,
        stop_after=stop_after,
        on_progress=on_progress,
        frontier_target=UNIT_TARGET,
    )
    incomplete = bootstrap_budget_hit
    stopped_early = (
        stop_after is not None and len(outcome.violations) >= stop_after
    )
    if stack and not incomplete and not stopped_early:
        # Units in the order the sequential search would pop them, so the
        # merged violation list leads with the subtree DFS reaches first.
        units = list(reversed(stack))
        base_visited = {key: list(value) for key, value in visited.items()}
        packed = [
            (
                scenario,
                unit.prefix,
                unit.sleep,
                base_visited,
                max_interleavings,
                max_decisions,
                max_steps,
                reduction,
                check_theorem1,
                stop_after,
            )
            for unit in units
        ]
        context = multiprocessing.get_context("fork")
        with context.Pool(processes=jobs) as pool:
            for unit_outcome, unit_incomplete in pool.imap(
                _run_unit, packed
            ):
                outcome.explored += unit_outcome.explored
                outcome.pruned_fingerprint += unit_outcome.pruned_fingerprint
                outcome.pruned_sleep += unit_outcome.pruned_sleep
                outcome.truncated += unit_outcome.truncated
                outcome.violations.extend(unit_outcome.violations)
                outcome.terminal_histories |= unit_outcome.terminal_histories
                outcome.max_decisions_seen = max(
                    outcome.max_decisions_seen,
                    unit_outcome.max_decisions_seen,
                )
                incomplete = incomplete or unit_incomplete
                if on_progress is not None:
                    on_progress(outcome)
        stack = []
    outcome.exhausted = (
        not stack and not incomplete and outcome.truncated == 0
    )
    if metrics is not None:
        _emit_metrics(
            metrics, outcome, scenario, time.perf_counter() - started_at
        )
    logger.info("%s", outcome.summary())
    return outcome


__all__ = ["explore_parallel", "UNIT_TARGET"]
