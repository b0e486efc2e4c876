"""Relation (directed graph) utilities over operation indices.

Relations are kept as per-node successor bitmasks (Python ints), which
makes transitive closure and reachability cheap for the history sizes the
checkers handle (up to tens of thousands of operations). The closure of
a sparse relation — program order plus reads-from has about two edges
per node — is one topological pass of mask unions, so callers that grow
a relation (the saturation loop of :mod:`repro.checker.causal`) keep the
sparse relation and re-close it, rather than maintaining a dense closure
edge by edge; :class:`GrowingRelation` keeps the decoded masks and the
topological order across those re-closures.
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

    def transitive_closure(self) -> "Relation":
        """The transitive closure (:meth:`GrowingRelation.closure`)."""
        return GrowingRelation(self).closure()

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


class GrowingRelation:
    """A relation re-closed after each batch of new edges (the saturation
    loop of :mod:`repro.checker.causal`).

    It keeps what a closure derives from the masks of :attr:`relation`:
    each mask decoded to the list of its set bits, and a topological
    order with each node's position in it. :meth:`add_mask` decodes only
    the new bits, and an edge that runs against the order marks the
    stretch of the order between its ends; :meth:`closure` re-sorts only
    the marked stretches, because every other edge still agrees with the
    order and a cycle lies inside a marked stretch. :meth:`copy` shares
    the decoded lists, which are replaced, never mutated. Close it once
    before growing or copying it.
    """

    __slots__ = ("relation", "children", "order", "position", "_stretches")

    def __init__(self, relation: Relation) -> None:
        self.relation = relation
        self.children: Optional[list[list[int]]] = None
        #: Each node before its successors; None once a cycle is found.
        #: It starts as descending index order, which is its own inverse.
        self.order: Optional[list[int]] = list(range(relation.size - 1, -1, -1))
        self.position = list(self.order)
        self._stretches: list[tuple[int, int]] = []

    @property
    def cyclic(self) -> bool:
        """Whether the relation held a cycle at the last :meth:`closure`."""
        return self.order is None

    def copy(self) -> "GrowingRelation":
        dup = object.__new__(GrowingRelation)
        dup.relation = self.relation.copy()
        dup.children, dup.order = list(self.children), list(self.order)
        dup.position, dup._stretches = list(self.position), list(self._stretches)
        return dup

    def add_mask(self, node: int, mask: int) -> None:
        """Add (node, b) for every b in the bitmask *mask*."""
        added = _bits(mask & ~self.relation._succ[node])
        if added:
            self.relation.add_mask(node, mask)
            self.children[node] = self.children[node] + added
            low = min(map(self.position.__getitem__, added))
            if low <= self.position[node]:
                self._stretches.append((low, self.position[node]))

    @profiled("checker.transitive_closure")
    def closure(self) -> Relation:
        """The transitive closure: one reverse-topological pass of mask
        unions, or on a cyclic relation the mask-propagation fixpoint,
        whose result is identical (the closure is unique). On large,
        sparse relations decoding and sorting cost more than the unions,
        which is why both are kept across growths."""
        relation = self.relation
        observe_size("checker.graph_nodes", relation.size)
        if self.children is None:
            # Every edge of a recorded history's predecessor relation
            # agrees with descending index order; one stretch covers
            # those that do not.
            self.children = [_bits(mask) for mask in relation._succ]
            last = relation.size - 1
            against = [
                node for node, kids in enumerate(self.children) if kids and kids[0] >= node
            ]
            if against:
                top = max(self.children[node][0] for node in against)
                self._stretches = [(last - top, last - against[0])]
        if self._stretches and self.order is not None:
            self._resort()
        if self.order is None:
            return relation._closure_fixpoint()
        closure = Relation(relation.size)
        closed = closure._succ
        succ = relation._succ
        children = self.children
        for node in reversed(self.order):
            acc = succ[node]
            for child in children[node]:
                acc |= closed[child]
            closed[node] = acc
        return closure

    def _resort(self) -> None:
        """Kahn-sort each marked stretch (merged where they overlap or
        touch) under the edges inside it; a cycle drops the order."""
        order, position, children = self.order, self.position, self.children
        merged: list[list[int]] = []
        for low, high in sorted(self._stretches):
            if merged and low <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], high)
            else:
                merged.append([low, high])
        self._stretches = []
        indegree = [-1] * len(order)  # -1: outside the stretch being sorted
        for low, high in merged:
            nodes = order[low : high + 1]
            for node in nodes:
                indegree[node] = 0
            for node in nodes:
                for child in children[node]:
                    if indegree[child] >= 0:
                        indegree[child] += 1
            ready = [node for node in nodes if not indegree[node]]
            at = low
            while ready:
                node = ready.pop()
                order[at] = node
                position[node] = at
                indegree[node] = -1
                at += 1
                for child in children[node]:
                    if indegree[child] > 0:
                        indegree[child] -= 1
                        if not indegree[child]:
                            ready.append(child)
            if at <= high:
                self.order = None
                return


__all__ = ["GrowingRelation", "Relation"]
