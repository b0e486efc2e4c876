"""Polynomial-time causal memory checker.

Implements the paper's Definitions 1–5 as a decision procedure for
*differentiated* histories (each value written at most once per variable,
the paper's §2 assumption), in the spirit of Bouajjani, Enea, Guerraoui
and Hamza, "On verifying causal consistency" (POPL 2017):

1. Build the causal order ``CO`` — the transitive closure of program
   order and reads-from (Definition 2).
2. For each process ``i``, restrict ``CO`` to alpha_i (all writes plus
   ``i``'s reads) and *saturate*: whenever a read ``r`` of ``i`` reads
   value ``v`` of ``x`` from write ``w``, every other write ``w'`` on
   ``x`` ordered before ``r`` must be ordered before ``w`` (otherwise
   ``w'`` would fall between ``w`` and ``r`` in every view, making the
   view illegal). Saturation is a least fixpoint.
3. alpha_i has a causal view iff the saturated relation is acyclic and no
   read of the initial value of ``x`` is preceded by a write on ``x``.

The implementation follows that recompute-per-pass formulation, but on
bitmasks in the predecessor direction. It keeps the *sparse* base
relation (program order plus reads-from, :attr:`Derivations.base
<repro.checker.cache.Derivations.base>`, transposed) and, per pass:
takes the closed predecessor masks ``P``; for each read ``r`` of ``x``
from ``w`` computes ``P[r] & writes_on[x]`` (the writes on ``x`` before
``r``); ORs those not yet before ``w`` into ``w``'s direct predecessors;
and re-closes the grown sparse relation with one topological pass
(:class:`~repro.checker.graph.GrowingRelation`: the base is decoded and
sorted once per check, and a pass re-decodes only the masks it grew and
re-sorts only the stretches of the order its new edges cross). Never
materialising a restricted relation is sound because added edges connect
writes, which belong to every alpha_i: reachability between alpha_i's
members in the full relation coincides with the restricted one, and
only alpha_i's nodes are consulted for cycles. The reported violation is
therefore the one the textbook formulation reports; property tests pin
this against a naive Warshall-closure oracle and against the
certificate-producing view search (:mod:`repro.checker.views`).

Derived structures (op index, reads-from, sparse base) are shared with
the other checkers through :mod:`repro.checker.cache`.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import CheckerError
from repro.checker.cache import derive
from repro.checker.graph import GrowingRelation, Relation
from repro.checker.report import CheckResult, Violation
from repro.memory.history import History
from repro.memory.operations import Operation
from repro.obs.profile import observe_size, profiled


@profiled("checker.causal_order")
def causal_order(history: History) -> tuple[list[Operation], Relation]:
    """The operations of *history* and their causal order (Definition 2).

    Returns (ops, CO) where CO is the transitive closure of program order
    union reads-from, as a :class:`Relation` over indices into ops. The
    relation comes from the per-history derivation cache and is shared:
    treat it as read-only (``copy()`` before extending).
    """
    derivations = derive(history)
    return list(derivations.operations), derivations.order


def _saturate(
    ops: list[Operation],
    preds: GrowingRelation,
    before: Relation,
    proc: str,
    reads: list[tuple[int, int, Optional[int]]],
    carrier: int,
) -> Optional[Violation]:
    """Saturate alpha_*proc*; returns the violation, or None if causal.

    *preds* is the sparse base in the predecessor direction (grown in
    place) and *before* its transitive closure: ``before`` masks hold
    every op CO-before a node. *reads* lists *proc*'s reads in history
    order as (read, mask of the writes on its variable, source write or
    None for the initial value). *carrier* is the bitmask of alpha_i.
    """
    passes = edges = 0
    try:
        while True:
            passes += 1
            added = 0
            for read_pos, writes, write_pos in reads:
                earlier = before.successors_mask(read_pos) & writes
                if not earlier:
                    continue
                if write_pos is None:
                    other = ops[(earlier & -earlier).bit_length() - 1]
                    read = ops[read_pos]
                    return Violation(
                        pattern="WriteHBInitRead",
                        process=proc,
                        operations=(other, read),
                        detail=f"{read} returns the initial value although "
                        f"{other} precedes it in causal order",
                    )
                new = earlier & ~before.successors_mask(write_pos) & ~(1 << write_pos)
                if new:
                    preds.add_mask(write_pos, new)
                    added += new.bit_count()
            if not added:
                return None
            edges += added
            before = preds.closure()
            if preds.cyclic:
                return Violation(
                    pattern="CyclicHB",
                    process=proc,
                    operations=(ops[before.cycle_node(carrier)],),
                    detail="the saturated happened-before relation is cyclic; "
                    "no permutation can preserve the causal order",
                )
    finally:
        observe_size("checker.saturation_passes", passes)
        observe_size("checker.saturation_edges", edges)


@profiled("checker.check_causal")
def check_causal(history: History) -> CheckResult:
    """Decide whether *history* is a causal computation (Definition 4)."""
    result = CheckResult(model="causal", ok=True, size=len(history))
    if not history:
        return result
    observe_size("checker.history_ops", len(history))
    history.validate()
    try:
        derivations = derive(history)
    except CheckerError as exc:
        result.ok = False
        result.violations.append(
            Violation(pattern="ThinAirRead", process=None, operations=(), detail=str(exc))
        )
        return result

    ops, index = derivations.operations, derivations.index
    preds = GrowingRelation(derivations.base.transposed())
    before = preds.closure()
    if preds.cyclic:
        result.ok = False
        result.violations.append(
            Violation(
                pattern="CyclicCO",
                process=None,
                operations=(ops[before.cycle_node()],),
                detail="program order and reads-from form a cycle",
            )
        )
        return result

    writes_on: dict[str, int] = {}
    all_writes = 0
    for position, op in enumerate(ops):
        if op.is_write:
            bit = 1 << position
            writes_on[op.var] = writes_on.get(op.var, 0) | bit
            all_writes |= bit
    reads_of: dict[str, list[tuple[int, int, Optional[int]]]] = {}
    for read, write in derivations.reads_from.items():
        reads_of.setdefault(read.proc, []).append(
            (
                index[read.op_id],
                writes_on.get(read.var, 0),
                None if write is None else index[write.op_id],
            )
        )
    for proc in history.processes():
        reads = reads_of.get(proc)
        if not reads:
            continue
        carrier = all_writes
        for read_pos, _, _ in reads:
            carrier |= 1 << read_pos
        violation = _saturate(ops, preds.copy(), before, proc, reads, carrier)
        if violation is not None:
            result.ok = False
            result.violations.append(violation)
    return result


__all__ = ["check_causal", "causal_order"]
