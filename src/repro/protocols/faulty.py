"""Deliberately weak protocols, used to validate the consistency checkers.

A checker that never flags anything is worthless; these protocols give the
test suite executions that are *provably* weaker than causal:

* :class:`FifoApplyMCS` — applies every remote update the moment it is
  delivered. With the per-pair FIFO channels this yields PRAM consistency
  (each process's writes are seen in its program order) but not causal
  consistency: transitive dependencies through reads are not respected.
* :class:`ScrambledApplyMCS` — additionally defers each apply by an
  independent random lag, destroying even per-sender ordering; executions
  are generally not even PRAM.

Both respond to writes immediately and serve reads locally.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.memory.interface import MCSProcess
from repro.memory.operations import INITIAL_VALUE
from repro.protocols.base import ProtocolSpec, register
from repro.protocols.messages import CausalUpdate
from repro.sim import rng as rng_mod
from repro.sim.clock import VectorClock


class FifoApplyMCS(MCSProcess):
    """Applies remote updates on delivery: PRAM, but not causal."""

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._store: dict[str, Any] = {}
        self._sent = 0
        self.updates_applied = 0

    def _handle_write(self, var: str, value: Any, done: Callable[[], None]) -> None:
        self._sent += 1
        update = CausalUpdate(
            var=var,
            value=value,
            ts=VectorClock({self.proc_index: self._sent}),
            sender_index=self.proc_index,
            sender_name=self.name,
        )
        self._apply_with_upcalls(
            var, value, lambda: self._store.__setitem__(var, value), own_write=True
        )
        done()
        self.network.broadcast(self.name, update)

    def _handle_read(self, var: str, done: Callable[[Any], None]) -> None:
        done(self._store.get(var, INITIAL_VALUE))

    def local_value(self, var: str) -> Any:
        return self._store.get(var, INITIAL_VALUE)

    def state_key(self) -> tuple:
        return (
            tuple(sorted(self._store.items())),
            self._sent,
            self.updates_applied,
            tuple(self.missed_upcalls),
        )

    def _on_message(self, src: str, payload: Any) -> None:
        if not isinstance(payload, CausalUpdate):
            raise TypeError(f"{self.name}: unexpected payload {payload!r}")
        self._apply(payload)

    def _apply(self, update: CausalUpdate) -> None:
        def commit() -> None:
            self._store[update.var] = update.value
            self.updates_applied += 1

        self._apply_with_upcalls(update.var, update.value, commit, own_write=False)


class ScrambledApplyMCS(FifoApplyMCS):
    """Applies remote updates after an independent random lag: not even PRAM."""

    def __init__(self, max_lag: float = 5.0, lag_seed: int = 23, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._max_lag = max_lag
        self._rng = rng_mod.derive(lag_seed, "scrambled", self.name)

    def state_key(self) -> tuple:
        return super().state_key() + (rng_mod.state_key(self._rng),)

    def _on_message(self, src: str, payload: Any) -> None:
        if not isinstance(payload, CausalUpdate):
            raise TypeError(f"{self.name}: unexpected payload {payload!r}")
        self.after(self._rng.uniform(0.0, self._max_lag), lambda: self._apply(payload))


FIFO_APPLY = register(
    ProtocolSpec(
        name="fifo-apply",
        factory=FifoApplyMCS,
        causal_updating=False,
        consistency="pram",
    )
)

SCRAMBLED_APPLY = register(
    ProtocolSpec(
        name="scrambled-apply",
        factory=ScrambledApplyMCS,
        causal_updating=False,
        consistency="none",
    )
)

__all__ = ["FifoApplyMCS", "ScrambledApplyMCS", "FIFO_APPLY", "SCRAMBLED_APPLY"]
