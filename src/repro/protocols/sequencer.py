"""The sequencer shared by the protocols that order their writes.

The node that orders a write's *stream* gives it the stream's next
sequence number and broadcasts it; each replica applies a stream in
sequence order, and the writer blocks until its own write applies there.
Streams are one for all variables (``aw-sequential``), one per variable
(``parametrized-cache``), or the hybrid protocol's strong writes, whose
readiness also requires causal readiness. ``lamport-sequential`` orders
its writes by Lamport timestamps instead and uses only the blocked
writers (:meth:`Sequencer.wait` and :meth:`Sequencer.answer`).
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

from repro.errors import ProtocolError
from repro.memory.interface import callback_names


class Sequencer:
    """One MCS-process's sequence counters, held updates and blocked writers.

    Updates carry ``seqno``, ``var``, ``value`` and ``origin``; an update
    whose origin is *owner* is the owning MCS-process's own write.
    """

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self._assigned: dict[Hashable, int] = {}
        self._next: dict[Hashable, int] = {}
        self._held: dict[tuple[Hashable, int], Any] = {}
        self._waiting: list[tuple[str, Any, Callable[[], None]]] = []

    def assign(self, stream: Hashable) -> int:
        """The next sequence number of *stream*, at the node that orders it."""
        seqno = self._assigned.get(stream, 0)
        self._assigned[stream] = seqno + 1
        return seqno

    def wait(self, var: str, value: Any, done: Callable[[], None]) -> None:
        """Block a writer until its write of *value* to *var* applies here."""
        self._waiting.append((var, value, done))

    def hold(self, stream: Hashable, update: Any) -> None:
        self._held[stream, update.seqno] = update

    def release(
        self, stream: Hashable, ready: Callable[[Any], bool], apply: Callable[[Any, bool], None]
    ) -> bool:
        """Apply *stream*'s held updates in order up to a gap or an update
        that is not *ready*; return whether any applied. *apply* gets the
        update and whether it is the owner's own write, which then answers
        the oldest blocked writer."""
        released = False
        while True:
            seqno = self._next.get(stream, 0)
            update = self._held.get((stream, seqno))
            if update is None or not ready(update):
                return released
            del self._held[stream, seqno]
            own = update.origin == self.owner
            apply(update, own)
            if own:
                self.answer(update)
            self._next[stream] = seqno + 1
            released = True

    def answer(self, update: Any) -> None:
        """Answer the oldest blocked writer, whose write *update* must be:
        the owner's writes apply in the order they were issued."""
        var, value, done = self._waiting.pop(0)
        if (var, value) != (update.var, update.value):
            raise ProtocolError(
                f"{self.owner}: writes acknowledged out of order "
                f"({var!r}={value!r} vs {update.var!r}={update.value!r})"
            )
        done()

    def state_key(self) -> tuple:
        return (
            tuple(sorted(self._assigned.items())),
            tuple(sorted(self._next.items())),
            tuple(sorted(self._held.items())),
            tuple((var, value) for var, value, _ in self._waiting),
            callback_names(done for _, _, done in self._waiting),
        )


__all__ = ["Sequencer"]
