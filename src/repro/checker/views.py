"""Explicit legal-sequence search: certificates for consistency checks.

The fast checker (:mod:`repro.checker.causal`) answers yes/no; this module
*constructs* the causal views of Definition 3 (or refutes their
existence) by backtracking search. It is exponential in the worst case and
meant for moderate histories — its roles are certificate production and
cross-validation of the polynomial checker in the property-based tests.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import CheckerError
from repro.checker.graph import Relation
from repro.checker.report import CheckResult, Violation
from repro.memory.history import History
from repro.memory.operations import INITIAL_VALUE, Operation


def search_legal_sequence(
    ops: Sequence[Operation],
    order: Relation,
    max_states: int = 500_000,
) -> Optional[list[Operation]]:
    """Find a legal permutation of *ops* preserving *order*, or None.

    Legal (Definition 1): every read of ``(x, v)`` is scheduled while the
    most recently scheduled write on ``x`` wrote ``v`` (or no write on
    ``x`` was scheduled yet, for the initial value).

    *order* is a relation over indices of *ops* (need not be closed).
    State memoisation keys on the scheduled set plus the current
    last-writer per variable; the search raises :class:`CheckerError`
    after *max_states* states so pathological instances fail loudly
    instead of hanging.
    """
    count = len(ops)
    preds = [0] * count
    for a in range(count):
        for b in order.successors(a):
            preds[b] |= 1 << a
    full_mask = (1 << count) - 1
    variables = sorted({op.var for op in ops})
    var_pos = {var: position for position, var in enumerate(variables)}

    failed: set[tuple[int, tuple[int, ...]]] = set()
    states = 0

    def last_value(last_write: tuple[int, ...], var: str) -> object:
        writer = last_write[var_pos[var]]
        return INITIAL_VALUE if writer < 0 else ops[writer].value

    def step(scheduled: int, last_write: tuple[int, ...], prefix: list[int]) -> Optional[list[int]]:
        nonlocal states
        if scheduled == full_mask:
            return prefix
        key = (scheduled, last_write)
        if key in failed:
            return None
        states += 1
        if states > max_states:
            raise CheckerError(f"legal-sequence search exceeded {max_states} states")
        candidates = [
            position
            for position in range(count)
            if not scheduled & (1 << position) and preds[position] & ~scheduled == 0
        ]
        # Schedule satisfiable reads eagerly: they never change the store
        # state, so taking them first only prunes the search.
        reads = [
            position
            for position in candidates
            if ops[position].is_read and last_value(last_write, ops[position].var) == ops[position].value
        ]
        if reads:
            position = reads[0]
            outcome = step(scheduled | 1 << position, last_write, prefix + [position])
            if outcome is None:
                failed.add(key)
            return outcome
        for position in candidates:
            op = ops[position]
            if op.is_read:
                continue  # unsatisfiable right now; a write must come first
            updated = list(last_write)
            updated[var_pos[op.var]] = position
            outcome = step(scheduled | 1 << position, tuple(updated), prefix + [position])
            if outcome is not None:
                return outcome
        failed.add(key)
        return None

    initial = tuple([-1] * len(variables))
    try:
        found = step(0, initial, [])
    finally:
        del step  # it refers to itself: free the search without the collector
    if found is None:
        return None
    return [ops[position] for position in found]


def find_causal_view(
    history: History,
    proc: str,
    max_states: int = 500_000,
) -> Optional[list[Operation]]:
    """A causal view of alpha_proc (Definition 3), or None if none exists."""
    from repro.checker.causal import causal_order  # local import: avoid cycle

    ops, order = causal_order(history)
    keep = [position for position, op in enumerate(ops) if op.is_write or op.proc == proc]
    sub_ops = [ops[position] for position in keep]
    restricted = order.restrict(keep)
    return search_legal_sequence(sub_ops, restricted, max_states=max_states)


def check_causal_by_views(history: History, max_states: int = 500_000) -> CheckResult:
    """Causal check that also produces the per-process view certificates.

    Exponential in the worst case; use :func:`repro.checker.check_causal`
    for large histories.
    """
    result = CheckResult(model="causal(views)", ok=True, size=len(history))
    history.validate()
    try:
        history.reads_from()
    except CheckerError as exc:
        result.ok = False
        result.violations.append(
            Violation(pattern="ThinAirRead", process=None, operations=(), detail=str(exc))
        )
        return result
    for proc in history.processes():
        if not any(op.is_read for op in history.of_process(proc)):
            continue
        view = find_causal_view(history, proc, max_states=max_states)
        if view is None:
            result.ok = False
            result.violations.append(
                Violation(
                    pattern="NoLegalView",
                    process=proc,
                    operations=tuple(history.of_process(proc)),
                    detail=f"alpha_{proc} admits no legal causal-order-preserving permutation",
                )
            )
        else:
            result.views[proc] = view
    return result


__all__ = ["search_legal_sequence", "find_causal_view", "check_causal_by_views"]
