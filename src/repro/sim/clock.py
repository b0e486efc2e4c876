"""Logical clocks: vector clocks and Lamport clocks.

Vector clocks are the workhorse of the causal MCS protocols
(:mod:`repro.protocols.vector`): a write is applied at a replica only when
it is *causally ready* with respect to the replica's clock. Lamport clocks
provide the total-order tiebreaker used by the sequential protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping


def _index(proc: int) -> int:
    if proc < 0:
        raise ValueError(f"negative process index {proc}")
    return proc


class VectorClock:
    """An immutable vector clock over integer process indices.

    Entries default to zero, so clocks over different process sets compare
    sensibly. All operations return new clocks; instances are hashable and
    safe to embed in messages.

    The representation is dense: a tuple of counts indexed by process,
    with trailing zeros stripped so equal clocks have equal tuples.
    Process indices are small and contiguous within a system
    (:meth:`repro.memory.system.DSMSystem.new_mcs` numbers them 0..n-1),
    so ``get`` is an index and ``merge``/``dominates`` are pointwise maps.
    """

    __slots__ = ("_counts",)

    def __init__(self, entries: Mapping[int, int] | None = None) -> None:
        entries = entries or {}
        counts = [0] * (max(entries, default=-1) + 1)
        for proc, count in entries.items():
            if count < 0:
                raise ValueError(f"negative clock entry for process {proc}")
            counts[_index(proc)] = count
        while counts and not counts[-1]:
            counts.pop()
        self._counts: tuple[int, ...] = tuple(counts)

    @classmethod
    def _of(cls, counts: tuple[int, ...]) -> "VectorClock":
        """Wrap an already-canonical counts tuple (no trailing zero)."""
        clock = object.__new__(cls)
        clock._counts = counts
        return clock

    def get(self, proc: int) -> int:
        """Value of the entry for *proc* (0 if absent)."""
        counts = self._counts
        return counts[proc] if _index(proc) < len(counts) else 0

    def increment(self, proc: int) -> "VectorClock":
        """Return a copy with *proc*'s entry incremented by one."""
        counts = self._counts
        if 0 <= proc < len(counts):
            return VectorClock._of(counts[:proc] + (counts[proc] + 1,) + counts[proc + 1:])
        return VectorClock._of(counts + (0,) * (_index(proc) - len(counts)) + (1,))

    def merge(self, other: "VectorClock") -> "VectorClock":
        """Pointwise maximum (join) of the two clocks."""
        mine, theirs = self._counts, other._counts
        if len(mine) < len(theirs):
            mine, theirs = theirs, mine
        return VectorClock._of(tuple(map(max, mine, theirs)) + mine[len(theirs):])

    def dominates(self, other: "VectorClock") -> bool:
        """True if every entry of *self* is >= the entry of *other*."""
        mine, theirs = self._counts, other._counts
        # A longer *other* ends in a nonzero entry *self* lacks.
        return len(theirs) <= len(mine) and all(map(int.__ge__, mine, theirs))

    def causally_ready(self, clock: "VectorClock", sender: int) -> bool:
        """True when a message timestamped *self* by *sender* may be
        applied at a replica whose clock is *clock*.

        Ready iff *sender*'s entry is the next one *clock* expects and no
        other entry is ahead of *clock*: every write the message depends
        on has been applied. This is the hold-back predicate shared by
        every vector-clock protocol.
        """
        counts = self._counts
        if not 0 <= sender < len(counts):
            _index(sender)  # raises for a negative index
            return False
        local = clock._counts + (0,) * (len(counts) - len(clock._counts))
        if counts[sender] != local[sender] + 1:
            return False
        # The sender's entry is the one position where counts exceeds local.
        return sum(map(int.__gt__, counts, local)) == 1

    def __le__(self, other: "VectorClock") -> bool:
        return other.dominates(self)

    def __lt__(self, other: "VectorClock") -> bool:
        return self <= other and self != other

    def concurrent_with(self, other: "VectorClock") -> bool:
        """True if neither clock dominates the other."""
        return not self.dominates(other) and not other.dominates(self)

    def processes(self) -> Iterator[int]:
        """Processes with a nonzero entry."""
        return (proc for proc, count in enumerate(self._counts) if count)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        return hash(self._counts)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{proc}:{count}" for proc, count in enumerate(self._counts) if count
        )
        return f"VC({{{inner}}})"

    @classmethod
    def join_all(cls, clocks: Iterable["VectorClock"]) -> "VectorClock":
        """Pointwise maximum of any number of clocks."""
        result = cls()
        for clock in clocks:
            result = result.merge(clock)
        return result


@dataclass(frozen=True, order=True)
class LamportTimestamp:
    """A Lamport timestamp: (counter, process id) totally ordered pairs."""

    counter: int
    proc: int


class LamportClock:
    """A mutable Lamport clock owned by a single process."""

    __slots__ = ("_proc", "_counter")

    def __init__(self, proc: int) -> None:
        self._proc = proc
        self._counter = 0

    def tick(self) -> LamportTimestamp:
        """Advance for a local event and return the new timestamp."""
        self._counter += 1
        return LamportTimestamp(self._counter, self._proc)

    def observe(self, remote: LamportTimestamp) -> LamportTimestamp:
        """Advance past a received timestamp and return the new timestamp."""
        self._counter = max(self._counter, remote.counter) + 1
        return LamportTimestamp(self._counter, self._proc)

    @property
    def current(self) -> LamportTimestamp:
        return LamportTimestamp(self._counter, self._proc)


__all__ = ["VectorClock", "LamportClock", "LamportTimestamp"]
