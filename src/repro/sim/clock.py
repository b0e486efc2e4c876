"""Logical clocks: vector clocks and Lamport clocks.

Vector clocks are the workhorse of the causal MCS protocols
(:mod:`repro.protocols.vector`): a write is applied at a replica only when
it is *causally ready* with respect to the replica's clock. Lamport clocks
provide the total-order tiebreaker used by the sequential protocol.

A clock comes in two forms. A message timestamp is a frozen
:class:`VectorClock`: immutable, hashable, safe to share. A replica's
applied clock is a mutable list of *counters* owned by its process,
indexed by process, with no trailing zero: :func:`advance` and
:func:`merge_into` change it in place, :func:`causally_ready` tests a
timestamp against it, and :func:`freeze` makes a timestamp of it, once
per write instead of once per apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import gt
from typing import Iterable, Iterator, Mapping, Sequence


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
        applied at a replica whose clock is *clock* (see
        :func:`causally_ready`)."""
        return causally_ready(self, sender, clock._counts)

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


def causally_ready(ts: VectorClock, sender: int, counts: Sequence[int]) -> bool:
    """True when a message timestamped *ts* by *sender* may be applied at
    a replica whose applied clock is *counts*.

    Ready iff *sender*'s entry is the next one *counts* expects and no
    other entry is ahead of *counts*: every write the message depends on
    has been applied. This is the hold-back predicate shared by every
    vector-clock protocol. *counts* may be shorter or longer than the
    timestamp, and may end in zeros; an absent entry is zero.
    """
    stamp = ts._counts
    length = len(stamp)
    if 0 <= sender < length <= len(counts):
        # The sender's entry is the one position where the stamp exceeds
        # the counters.
        return stamp[sender] == counts[sender] + 1 and sum(map(gt, stamp, counts)) == 1
    if not 0 <= sender < length:
        _index(sender)  # raises for a negative index
        return False
    # The canonical stamp ends past the counters, at a nonzero entry:
    # ready only if that is the sender's first write, with nothing ahead
    # of the counters before it.
    return (
        length == sender + 1
        and stamp[sender] == 1
        and not any(stamp[len(counts):sender])
        and not any(map(gt, stamp, counts))
    )


def advance(counts: list[int], proc: int) -> None:
    """Increment *proc*'s counter in place, growing *counts* to reach it.

    At a replica this is both a local write and the apply of a causally
    ready update from *proc*: merging a ready timestamp changes only the
    sender's entry, by one.
    """
    if not 0 <= proc < len(counts):
        counts.extend([0] * (_index(proc) + 1 - len(counts)))
    counts[proc] += 1


def merge_into(counts: list[int], ts: VectorClock) -> None:
    """Raise *counts* in place to the pointwise maximum with *ts*."""
    stamp = ts._counts
    if len(stamp) > len(counts):
        counts.extend([0] * (len(stamp) - len(counts)))
    for proc, count in enumerate(stamp):
        if count > counts[proc]:
            counts[proc] = count


def freeze(counts: Sequence[int]) -> VectorClock:
    """The timestamp of *counts*: a :class:`VectorClock` with equal
    entries, trailing zeros stripped."""
    end = len(counts)
    while end and not counts[end - 1]:
        end -= 1
    return VectorClock._of(tuple(counts[:end]) if end < len(counts) else tuple(counts))


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


__all__ = [
    "VectorClock",
    "LamportClock",
    "LamportTimestamp",
    "advance",
    "causally_ready",
    "freeze",
    "merge_into",
]
