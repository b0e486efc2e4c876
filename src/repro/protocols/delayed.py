"""A causal protocol that does NOT satisfy Causal Updating (Property 1).

The paper notes that every causal protocol in the literature updates
replicas in causal order, but its IS-protocol 2 is designed for the more
general class where the MCS-process of the IS-process may update replicas
of *different* variables out of causal order. This module provides such a
protocol so that Lemma 1 / experiment E9 can be exercised:

* Updates are gated for causal readiness exactly as in
  :mod:`repro.protocols.vector`, but once ready they enter a per-variable
  *lag queue* and are applied to the store only after an extra random lag.
  Lags are independent across variables, so two causally ordered writes on
  different variables can hit the store in inverted order — violating
  Property 1 at every replica.
* Application reads stay causal despite the lag: a read of ``x`` first
  flushes ``x``'s lag queue (applying every ready-but-lagging update to
  ``x``), and merges the returned value's timestamp into the reader's
  causal context. Per-variable queue order preserves same-variable causal
  order, so process views remain causal (validated by the property suite).

Interaction with the IS upcall contract (§2 conditions (a)–(c)):

* Reads issued *during* an upcall bypass the flush and return the raw
  replica value — exactly condition (c): the ``pre_update(x)`` read must
  return the pre-update value and the ``post_update(x, v)`` read must
  return ``v``. They still merge the value's timestamp into the
  IS-process's context, creating the causal edges Lemmas 3–6 rely on.
* When an IS-process that *wants* ``pre_update`` upcalls is attached
  (IS-protocol 2), the lag is disabled at that replica: honouring
  condition (c) while applying out of causal order would produce the
  non-causal read sequence of Lemma 1's proof, so a correct MCS-process
  must serialise its applies causally. This is precisely the content of
  Lemma 1 — the pre-update reads *force* causal application order.
* If IS-protocol 1 is (mis)used on this protocol — no ``pre_update``
  upcalls — the lag stays on, ``Propagate_out`` observes updates out of
  causal order, and the interconnected system is not causal. Experiment
  E9's negative arm demonstrates this; the checker catches the violation.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.memory.interface import MCSProcess
from repro.memory.operations import INITIAL_VALUE
from repro.protocols.base import ProtocolSpec, register
from repro.protocols.holdback import CausalHoldBack
from repro.protocols.messages import CausalUpdate
from repro.sim import rng as rng_mod
from repro.sim.clock import VectorClock


class DelayedApplyMCS(MCSProcess):
    """Causally-gated protocol with per-variable lagged, reorderable applies."""

    def __init__(self, max_lag: float = 2.0, lag_seed: int = 17, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._ctx = VectorClock()  # attached application's causal context
        self._seen = VectorClock()  # gates causal readiness
        self._holdback = CausalHoldBack()
        # Per-variable lag queues of (readiness rank, update). The rank
        # rides along with the update (instead of an id()-keyed side
        # table) so the queues are plain value state — object identities
        # must never leak into explorer state fingerprints.
        self._lag_queues: dict[str, deque[tuple[int, CausalUpdate]]] = {}
        self._max_lag = max_lag
        self._rng = rng_mod.derive(lag_seed, "delayed", kwargs.get("name", ""))
        self._in_upcall = False
        self.lag_inversions = 0  # applies that overtook an older ready update
        self._ready_counter = 0
        self._last_applied_rank = -1

    # -- lag policy ---------------------------------------------------------

    @property
    def _lag_disabled(self) -> bool:
        """Lag must be off when IS-protocol 2's pre-update reads are active
        (Lemma 1: conditions (a)-(c) force causal application order)."""
        return self.upcall_handler is not None and self.upcall_handler.wants_pre_update

    # -- call handling -------------------------------------------------------

    def _handle_write(self, var: str, value: Any, done: Callable[[], None]) -> None:
        self._flush_var(var)
        self._ctx = self._ctx.increment(self.proc_index)
        ts = self._ctx
        self._seen = self._seen.merge(ts)
        update = CausalUpdate(
            var=var, value=value, ts=ts, sender_index=self.proc_index, sender_name=self.name
        )
        self._apply_with_upcalls(update, own_write=True)
        done()
        self.network.broadcast(self.name, update)

    def _handle_read(self, var: str, done: Callable[[Any], None]) -> None:
        if not self._in_upcall:
            self._flush_var(var)
        value, ts = self._store.get(var, (INITIAL_VALUE, VectorClock()))
        self._ctx = self._ctx.merge(ts)
        done(value)

    def local_value(self, var: str) -> Any:
        return self._store.get(var, (INITIAL_VALUE, VectorClock()))[0]

    def state_key(self) -> tuple:
        return self._replica_key() + (
            self._ctx,
            self._seen,
            self._holdback.state_key(),
            tuple(sorted((var, tuple(queue)) for var, queue in self._lag_queues.items())),
            rng_mod.state_key(self._rng),
            self._in_upcall,
            self.lag_inversions,
            self._ready_counter,
            self._last_applied_rank,
        )

    # -- readiness gating ------------------------------------------------------

    def _on_message(self, src: str, payload: Any) -> None:
        if not isinstance(payload, CausalUpdate):
            raise TypeError(f"{self.name}: unexpected payload {payload!r}")
        self._holdback.arrive(payload, self._ready, self._release)

    def _ready(self, update: CausalUpdate) -> bool:
        return update.ts.causally_ready(self._seen, update.sender_index)

    def _release(self, update: CausalUpdate) -> None:
        self._seen = self._seen.merge(update.ts)
        self._stage(update)

    # -- lag stage ----------------------------------------------------------------

    def _stage(self, update: CausalUpdate) -> None:
        rank = self._ready_counter
        self._ready_counter += 1
        if self._lag_disabled:
            self._apply(rank, update)
            return
        queue = self._lag_queues.setdefault(update.var, deque())
        queue.append((rank, update))
        lag = self._rng.uniform(0.0, self._max_lag)
        self.after(lag, lambda: self._apply_through(update))

    def _apply_through(self, update: CausalUpdate) -> None:
        """Apply *update* and everything queued before it on its variable.

        The prefix rule keeps per-variable apply order equal to readiness
        (hence causal) order even though lag timers fire out of order; the
        reordering this protocol exhibits is purely *across* variables.
        """
        queue = self._lag_queues.get(update.var)
        if queue is None or not any(queued is update for _, queued in queue):
            return  # already applied by a flush or an earlier timer
        while queue:
            rank, head = queue.popleft()
            self._apply(rank, head)
            if head is update:
                break

    def _flush_var(self, var: str) -> None:
        queue = self._lag_queues.get(var)
        while queue:
            rank, head = queue.popleft()
            self._apply(rank, head)

    def _apply(self, rank: int, update: CausalUpdate) -> None:
        if rank < self._last_applied_rank:
            self.lag_inversions += 1
        self._last_applied_rank = max(self._last_applied_rank, rank)
        self._in_upcall = True
        try:
            self._apply_with_upcalls(update)
        finally:
            self._in_upcall = False

    def _commit(self, update: CausalUpdate) -> None:
        # The entry keeps the timestamp: a read merges it into the
        # reader's causal context.
        self._store[update.var] = (update.value, update.ts)
        self.updates_applied += 1


DELAYED_CAUSAL = register(
    ProtocolSpec(
        name="delayed-causal",
        factory=DelayedApplyMCS,
        causal_updating=False,
        consistency="causal",
    )
)

# With zero lag the apply order equals the (causal) readiness order, so
# Property 1 holds — but write timestamps still cover only what the writer
# actually read or wrote ("precise" causal contexts, finer than the replica
# clock of the vector protocol). This is the protocol on which dropping the
# IS read step (experiment E8) actually produces the §3 violation.
PRECISE_CAUSAL = register(
    ProtocolSpec(
        name="precise-causal",
        factory=DelayedApplyMCS,
        causal_updating=True,
        consistency="causal",
        options={"max_lag": 0.0},
    )
)

__all__ = ["DelayedApplyMCS", "DELAYED_CAUSAL", "PRECISE_CAUSAL"]
