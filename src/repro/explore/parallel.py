"""Multi-core exploration over disjoint subtree work-units.

``explore(..., jobs=N)`` with N >= 2 lands here. The stateless design of
:mod:`repro.explore.engine` makes the DFS embarrassingly parallel: a
tag-trace prefix fully identifies a subtree, so a work-unit is a branch
(prefix and sleep set), and only branches and result counts cross a
process boundary. Everything else a worker needs — the caller's
scenario factory, the search bounds and the bootstrap's
visited-fingerprint table — is handed to the fork pool's initializer
and inherited, never pickled, so any callable (a lambda included) works
as the factory.

Strategy (deterministic by construction):

1. **Bootstrap** — :func:`~repro.explore.engine.explore` runs the
   sequential loop until the branch stack holds at least
   :data:`UNIT_TARGET` entries. The bootstrap does not depend on the
   worker count, so the resulting work-units — the remaining stack
   entries — are identical for every N.
2. **Fan out** — each unit is explored to completion in a worker with a
   *fresh* visited-fingerprint table copied from the bootstrap table.
   Units never share discoveries, so a unit's outcome is a pure function
   of the unit.
3. **Merge** — per-unit :class:`~repro.explore.engine.ExploreResult`\\ s
   are folded in bootstrap stack order (the order the sequential search
   would have reached them).

Determinism contract: for a fixed scenario and budget, **every field of
the merged result — explored / pruned / truncated counts, exhaustion,
the violation list and the terminal-history set — is identical for all
N >= 2**, because neither the bootstrap nor any unit sees N. Parallel
totals may differ from sequential ones (cross-subtree fingerprint hits
are rediscovered per unit — strictly more work, never less coverage),
but verdicts, exhaustion and, for an exhausted search, the distinct
terminal histories agree; the CI smoke certifies this on the bridge
scenarios and on faulty-fifo.

Workers are forked, not spawned: :func:`repro.explore.fingerprint.
state_fingerprint` uses the interpreter's salted ``hash``, and a forked
child inherits the salt, keeping the seeded visited tables meaningful.
Without ``fork``, :func:`~repro.explore.engine.explore` logs a warning
and searches sequentially rather than produce unseeded tables.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable

from repro.explore.engine import ExploreResult, _Bounds, _Branch, _dfs

#: Bootstrap until the frontier holds this many branches. Fixed (never a
#: function of the worker count) so that work-units — and therefore every
#: merged count — are identical for any jobs >= 2.
UNIT_TARGET = 32

#: What every unit of the current search shares, set in each worker by
#: :func:`_init_worker`: (scenario, factory, bounds, bootstrap visited).
_search: tuple = ()


def _init_worker(*search) -> None:
    global _search
    _search = search


def _run_unit(branch: _Branch) -> tuple[ExploreResult, bool]:
    """Explore one subtree work-unit to completion (worker side); returns
    its outcome and whether it was left incomplete."""
    scenario, factory, bounds, base_visited = _search
    outcome = ExploreResult(scenario=scenario)
    visited = {key: list(value) for key, value in base_visited.items()}
    stack = [branch]
    budget_hit = _dfs(scenario, factory, bounds, outcome, stack, visited)
    return outcome, budget_hit or bool(stack)


def _fan_out(
    scenario: str,
    factory: Callable[[], "object"],
    bounds: _Bounds,
    outcome: ExploreResult,
    stack: list[_Branch],
    visited: dict[int, list[frozenset[str]]],
    jobs: int,
) -> bool:
    """Explore every branch left on the bootstrap *stack* in *jobs*
    forked workers and merge the unit outcomes into *outcome*; returns
    whether any unit was left incomplete."""
    # Units in the order the sequential search would pop them, so the
    # merged violation list leads with the subtree DFS reaches first.
    units = list(reversed(stack))
    incomplete = False
    context = multiprocessing.get_context("fork")
    with context.Pool(
        processes=jobs,
        initializer=_init_worker,
        initargs=(scenario, factory, bounds, visited),
    ) as pool:
        for unit, unit_incomplete in pool.imap(_run_unit, units):
            outcome.explored += unit.explored
            outcome.pruned_fingerprint += unit.pruned_fingerprint
            outcome.pruned_sleep += unit.pruned_sleep
            outcome.truncated += unit.truncated
            outcome.violations.extend(unit.violations)
            outcome.terminal_histories |= unit.terminal_histories
            outcome.max_decisions_seen = max(
                outcome.max_decisions_seen, unit.max_decisions_seen
            )
            incomplete = incomplete or unit_incomplete
    return incomplete


__all__ = ["UNIT_TARGET"]
