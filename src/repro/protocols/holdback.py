"""The causal hold-back queue shared by the propagation protocols.

Every propagation-based MCS-process (paper §2) holds a received update
back until the writes it depends on have been applied at its replica;
applying updates only in that order is what gives the Causal Updating
Property (Property 1). The protocols differ only in how they test
readiness and in what applying an update does, so both are passed in.
"""

from __future__ import annotations

from typing import Any, Callable

Ready = Callable[[Any], bool]
Apply = Callable[[Any], None]


class CausalHoldBack:
    """Received updates waiting for their causal dependencies."""

    def __init__(self) -> None:
        self._buffer: list[Any] = []
        self.max_buffered = 0

    def add(self, message: Any) -> None:
        self._buffer.append(message)
        if len(self._buffer) > self.max_buffered:
            self.max_buffered = len(self._buffer)

    def arrive(self, message: Any, ready: Ready, apply: Apply) -> None:
        """Take a received *message*: :meth:`add` it, then :meth:`drain`.

        At an empty buffer the drain's first pass would test *message*
        alone, so it is tested here instead: applied at once if ready
        (no snapshot, no removal, no empty second pass), else kept.
        """
        if self._buffer:
            self.add(message)
            self.drain(ready, apply)
        elif ready(message):
            if not self.max_buffered:
                self.max_buffered = 1
            apply(message)
        else:
            self.add(message)

    def release(self, ready: Ready, apply: Apply) -> bool:
        """One pass over a snapshot of the buffer, in arrival order.

        Each message is tested when the pass reaches it, so an update
        applied earlier in the same pass can make a later one ready.
        Returns whether anything was released.
        """
        released = False
        for message in list(self._buffer):
            if ready(message):
                self._buffer.remove(message)
                apply(message)
                released = True
        return released

    def drain(self, ready: Ready, apply: Apply) -> None:
        """Release until a pass releases nothing."""
        while self.release(ready, apply):
            pass

    def state_key(self) -> tuple:
        return (tuple(self._buffer), self.max_buffered)


__all__ = ["CausalHoldBack"]
