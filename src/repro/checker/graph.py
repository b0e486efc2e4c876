"""Relation (directed graph) utilities over operation indices.

Relations are kept as per-node successor bitmasks (Python ints), which
makes transitive closure and reachability cheap for the history sizes the
checkers handle (up to tens of thousands of operations). The closure of
a sparse relation — program order plus reads-from has about two edges
per node — is one topological pass of mask unions, so callers that grow
a relation (the saturation loop of :mod:`repro.checker.causal`) keep the
sparse relation and re-close it, rather than maintaining a dense closure
edge by edge.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from repro.obs.profile import observe_size, profiled


class Relation:
    """A binary relation over ``range(size)`` with bitmask adjacency."""

    __slots__ = ("size", "_succ")

    def __init__(self, size: int) -> None:
        self.size = size
        self._succ: list[int] = [0] * size

    def add(self, a: int, b: int) -> bool:
        """Add the pair (a, b); returns True if it was new."""
        bit = 1 << b
        if self._succ[a] & bit:
            return False
        self._succ[a] |= bit
        return True

    def add_mask(self, a: int, mask: int) -> None:
        """Add (a, b) for every b in the bitmask *mask*."""
        self._succ[a] |= mask

    def has(self, a: int, b: int) -> bool:
        return bool(self._succ[a] & (1 << b))

    def successors_mask(self, a: int) -> int:
        return self._succ[a]

    def successors(self, a: int) -> Iterator[int]:
        mask = self._succ[a]
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def copy(self) -> "Relation":
        dup = Relation(self.size)
        dup._succ = list(self._succ)
        return dup

    def transposed(self) -> "Relation":
        """The converse relation: (b, a) for every pair (a, b)."""
        converse = Relation(self.size)
        pred = converse._succ
        for node, mask in enumerate(self._succ):
            bit = 1 << node
            for child in _bits(mask):
                pred[child] |= bit
        return converse

    @profiled("checker.transitive_closure")
    def transitive_closure(self) -> "Relation":
        """The transitive closure.

        Acyclic relations (the overwhelmingly common case: program order
        plus reads-from of a well-formed history) are closed in a single
        reverse-topological pass; a cycle falls back to the mask-
        propagation fixpoint, whose result is identical (the closure is
        unique) and which still terminates on cyclic input. Each mask is
        decoded to a list of set bits once: on large, sparse relations
        decoding is what costs, not the unions.
        """
        observe_size("checker.graph_nodes", self.size)
        children = [_bits(mask) for mask in self._succ]
        order = _topological_order(children)
        if order is None:
            return self._closure_fixpoint()
        closure = Relation(self.size)
        closed = closure._succ
        succ = self._succ
        for node in reversed(order):
            acc = succ[node]
            for child in children[node]:
                acc |= closed[child]
            closed[node] = acc
        return closure

    def _closure_fixpoint(self) -> "Relation":
        """The original mask-propagation fixpoint (handles cycles)."""
        closure = self.copy()
        succ = closure._succ
        changed = True
        while changed:
            changed = False
            for node in range(closure.size):
                mask = succ[node]
                acc = mask
                for child in _bits(mask):
                    acc |= succ[child]
                if acc != mask:
                    succ[node] = acc
                    changed = True
        return closure

    def cycle_node(self, among: int = -1) -> Optional[int]:
        """The lowest node of the bitmask *among* (default: every node)
        that lies on a cycle of the *closed* relation, or None.

        Only meaningful when called on a transitive closure.
        """
        for node, mask in enumerate(self._succ):
            if mask & among & (1 << node):
                return node
        return None

    def restrict(self, keep: Sequence[int]) -> "Relation":
        """The induced subrelation, reindexed to ``range(len(keep))``.

        Masks are translated by run: maximal stretches of consecutive
        old indices move as one shift-and-mask chunk, so the cost is
        O(len(keep) × runs) word operations rather than the O(n²)
        per-bit probing of the naive version.
        """
        sub = Relation(len(keep))
        if not keep:
            return sub
        runs: list[tuple[int, int, int]] = []  # (old_start, new_start, chunk_mask)
        start = previous = keep[0]
        new_start = 0
        for new_index in range(1, len(keep)):
            old = keep[new_index]
            if old == previous + 1:
                previous = old
                continue
            runs.append((start, new_start, (1 << (previous - start + 1)) - 1))
            start = previous = old
            new_start = new_index
        runs.append((start, new_start, (1 << (previous - start + 1)) - 1))
        succ = self._succ
        sub_succ = sub._succ
        for new_a, old_a in enumerate(keep):
            mask = succ[old_a]
            if not mask:
                continue
            acc = 0
            for old_start, run_new_start, chunk_mask in runs:
                chunk = (mask >> old_start) & chunk_mask
                if chunk:
                    acc |= chunk << run_new_start
            sub_succ[new_a] = acc
        return sub

    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self._succ)

    def equal_edges(self, other: "Relation") -> bool:
        """True if both relations have exactly the same pairs."""
        return self.size == other.size and self._succ == other._succ


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of *mask*, highest first."""
    bits = []
    while mask:
        top = mask.bit_length() - 1
        bits.append(top)
        mask ^= 1 << top
    return bits


def _topological_order(children: list[list[int]]) -> Optional[list[int]]:
    """A topological order of the adjacency lists *children* (Kahn), or
    None if they contain a cycle."""
    indegree = [0] * len(children)
    for kids in children:
        for child in kids:
            indegree[child] += 1
    stack = [node for node, degree in enumerate(indegree) if not degree]
    order: list[int] = []
    while stack:
        node = stack.pop()
        order.append(node)
        for child in children[node]:
            indegree[child] -= 1
            if not indegree[child]:
                stack.append(child)
    return order if len(order) == len(children) else None


__all__ = ["Relation"]
