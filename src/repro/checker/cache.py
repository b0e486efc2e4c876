"""Cache consistency checker, plus the per-history derivation cache.

Cache consistency (Goodman) requires sequential consistency *per
variable*: for each variable ``x``, the sub-history of operations on ``x``
has a single legal serialization preserving program order. The
``parametrized-cache`` protocol targets exactly this model.

The second half of this module is the checkers' shared *derivation
cache*: every consistency checker starts from the same derived
structures — the operation list and op-id index, the reads-from map,
and the transitively closed causal order CO (program order union
reads-from, the paper's Definition 2). Before this cache,
:func:`repro.checker.sessions.check_all_session_guarantees` rebuilt all
of them four times per history, once per guarantee. :func:`derive`
computes them once per :class:`~repro.memory.history.History` object and
shares the result across every checker in the process.

Correctness of the sharing rests on two invariants:

* ``History`` is immutable (a tuple of operations), so an entry keyed on
  the history object can never go stale; entries die with their history
  via the weak-keyed map (no explicit eviction needed). Code that
  manufactures a *new* history gets a fresh entry by construction.
  :func:`invalidate` exists for tests and for any future mutable-history
  experiment.
* The cached :class:`~repro.checker.graph.Relation` objects (CO and its
  sparse base) are shared read-only. Checkers that extend a relation
  (CCv conflict edges) must ``copy()`` it first — all in-tree callers do.
"""

from __future__ import annotations

import weakref
from typing import Optional, Union

from repro.checker.graph import Relation
from repro.checker.report import CheckResult, Violation
from repro.checker.sequential import check_sequential
from repro.errors import CheckerError
from repro.memory.history import History
from repro.memory.operations import Operation
from repro.obs.profile import profiled


def check_cache(history: History, max_states: int = 500_000) -> CheckResult:
    """Decide cache consistency variable by variable."""
    result = CheckResult(model="cache", ok=True, size=len(history))
    if not history:
        return result
    history.validate()
    for var in history.variables():
        sub = history.filter(lambda op, _var=var: op.var == _var)
        verdict = check_sequential(sub, max_states=max_states)
        if not verdict.ok:
            result.ok = False
            result.violations.append(
                Violation(
                    pattern="NoLegalSerialization",
                    process=None,
                    operations=(),
                    detail=f"operations on variable {var!r} are not sequentially consistent",
                )
            )
        else:
            result.views[var] = verdict.views.get("*", [])
    return result


class Derivations:
    """Everything the checkers derive from a history, computed once.

    ``operations``, ``index``, ``reads_from`` and ``base`` (the sparse
    program order union reads-from, not closed) are built eagerly (they
    are cheap and every checker needs them); the CO closure is built on
    first access of :attr:`order`, so checkers that never look at causal
    order (PRAM's per-process view search) do not pay for it.

    Validation (``history.validate()``) deliberately stays *outside* the
    cache: each checker raises validation errors with its own contract,
    and the check is O(n) — caching it would change raise semantics for
    no measurable win.
    """

    __slots__ = ("operations", "index", "reads_from", "base", "_order")

    def __init__(self, history: History) -> None:
        ops = list(history.operations)
        self.operations = ops
        self.index: dict[int, int] = {
            op.op_id: position for position, op in enumerate(ops)
        }
        self.reads_from: dict[Operation, Optional[Operation]] = history.reads_from()
        base = Relation(len(ops))
        for proc in history.processes():
            sequence = history.of_process(proc)
            for earlier, later in zip(sequence, sequence[1:]):
                base.add(self.index[earlier.op_id], self.index[later.op_id])
        for read, write in self.reads_from.items():
            if write is not None:
                base.add(self.index[write.op_id], self.index[read.op_id])
        self.base = base
        self._order: Optional[Relation] = None

    @property
    def order(self) -> Relation:
        """The causal order CO (Definition 2), transitively closed.

        Shared across checkers: treat as read-only and ``copy()`` before
        extending it.
        """
        if self._order is None:
            self._order = self.base.transitive_closure()
        return self._order


#: History -> Derivations (or the CheckerError the derivation raised, so
#: a malformed history is not re-validated once per checker). Weak keys:
#: entries vanish with their history.
_CACHE: "weakref.WeakKeyDictionary[History, Union[Derivations, CheckerError]]" = (
    weakref.WeakKeyDictionary()
)


@profiled("checker.derive")
def derive(history: History) -> Derivations:
    """The shared :class:`Derivations` of *history* (cached per object).

    Raises :class:`~repro.errors.CheckerError` exactly as
    ``history.reads_from()`` would (thin-air reads); the failure is
    cached too, so a malformed history is not re-derived once per
    checker.
    """
    entry = _CACHE.get(history)
    if entry is None:
        try:
            entry = Derivations(history)
        except CheckerError as exc:
            _CACHE[history] = exc
            raise
        _CACHE[history] = entry
    elif isinstance(entry, CheckerError):
        raise entry
    return entry


def invalidate(history: Optional[History] = None) -> None:
    """Drop the cache entry for *history* (or all entries with ``None``)."""
    if history is None:
        _CACHE.clear()
    else:
        _CACHE.pop(history, None)


def cache_len() -> int:
    """Number of live cache entries (observability / tests)."""
    return len(_CACHE)


__all__ = ["check_cache", "Derivations", "derive", "invalidate", "cache_len"]
