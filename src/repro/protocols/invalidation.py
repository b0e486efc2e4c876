"""Invalidation-based causal memory — and why the paper excludes it.

The paper (§1) notes replica control is done "by either *invalidating*
outdated replicas or by *propagating* the new variable values", and every
result is stated for propagation-based systems only. This module supplies
the missing class so the boundary can be exercised:

* A write stores locally and broadcasts an *invalidation* (variable +
  timestamp + writer), not the value. Invalidations are applied in causal
  order (vector gating, like the propagation protocols).
* A read of a valid replica is local. A read of an invalidated replica
  *fetches*: the request (carrying the reader's causal context) goes to
  the writer of the latest applied invalidation; the target replies once
  it has applied everything the reader has seen, or redirects to a
  causally later writer if its own copy has been invalidated meanwhile.
  Fetched values are cached unless a newer invalidation already arrived.

Why the plain IS-protocols cannot bridge such a system: the ``post_update``
upcall contract assumes the MCS-process's replica holds the *value* right
after an update — but an invalidation-based MCS-process holds only a
tombstone. The adapter implemented here restores the contract at the
IS-attached replica only: when an MCS-process with an attached IS-process
applies a remote invalidation, it immediately fetches the value
(fetches are strictly serialised, preserving the causal application
order — Property 1) and delivers the upcalls when the value arrives,
deduplicating values that were already propagated. In other words, the
bridge converts invalidation back into propagation at the boundary, which
is exactly the paper's §2 requirement in disguise. Experiment X2.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.memory.interface import MCSProcess, ReplicaWrite, callback_names
from repro.memory.operations import INITIAL_VALUE
from repro.protocols.base import ProtocolSpec, register
from repro.protocols.holdback import CausalHoldBack
from repro.sim.clock import VectorClock


@dataclass(frozen=True)
class Invalidation:
    """A write announcement: variable, timestamp, and who holds the value."""

    var: str
    ts: VectorClock
    writer: str
    sender_index: int


@dataclass(frozen=True)
class FetchRequest:
    fetch_id: int
    var: str
    ctx: VectorClock
    requester: str


@dataclass(frozen=True)
class FetchReply:
    fetch_id: int
    var: str
    value: Any
    ts: VectorClock
    writer: str


@dataclass(frozen=True)
class FetchRedirect:
    """The target's copy was invalidated too: chase the newer writer."""

    fetch_id: int
    var: str
    next_writer: str


@dataclass
class _Replica:
    value: Any = INITIAL_VALUE
    ts: VectorClock = VectorClock()
    valid: bool = True
    #: The write currently deemed latest for this variable, under the
    #: deterministic arbitration of :meth:`InvalidationCausalMCS._wins`
    #: (causal dominance, ties between concurrent writes broken by writer
    #: name). Arbitration is what keeps fetch chases acyclic: two
    #: concurrent writers never end up pointing at each other.
    winner_ts: VectorClock = VectorClock()
    winner_writer: Optional[str] = None


class InvalidationCausalMCS(MCSProcess):
    """One MCS-process of the invalidation-based causal protocol."""

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._replicas: dict[str, _Replica] = {}
        self._applied = VectorClock()
        self._extra = VectorClock()
        self._holdback = CausalHoldBack()
        self._pending_fetches: dict[int, Callable[[Any], None]] = {}
        self._blocked_requests: list[FetchRequest] = []
        # IS adapter state: serialised value fetches for upcall delivery.
        self._upcall_fetch_queue: deque[Invalidation] = deque()
        self._upcall_fetch_active = False
        # Values already handed to the IS-process (or written by it):
        # propagated at most once each. Keyed by (var, value) — the §2
        # value-uniqueness discipline makes this exact, whereas clock
        # dominance would wrongly let the IS-process's own fat-clocked
        # writes suppress later foreign values.
        self._propagated_values: set[tuple[str, Any]] = set()
        self.invalidations_applied = 0
        self.fetches = 0
        self.redirects = 0

    def _replica(self, var: str) -> _Replica:
        replica = self._replicas.get(var)
        if replica is None:
            replica = _Replica()
            self._replicas[var] = replica
        return replica

    @property
    def _ctx(self) -> VectorClock:
        return self._applied.merge(self._extra)

    def state_key(self) -> tuple:
        return self._replica_key() + (
            tuple(
                (var, r.value, r.ts, r.valid, r.winner_ts, r.winner_writer)
                for var, r in sorted(self._replicas.items())
            ),
            self._applied,
            self._extra,
            self._holdback.state_key(),
            tuple(sorted(self._pending_fetches)),
            callback_names(done for _, done in sorted(self._pending_fetches.items())),
            tuple(self._blocked_requests),
            tuple(self._upcall_fetch_queue),
            self._upcall_fetch_active,
            frozenset(self._propagated_values),
            self.invalidations_applied,
            self.fetches,
            self.redirects,
        )

    # -- call handling ----------------------------------------------------------

    def _handle_write(self, var: str, value: Any, done: Callable[[], None]) -> None:
        ts = self._ctx.increment(self.proc_index)
        self._applied = self._applied.merge(ts)
        replica = self._replica(var)
        replica.value = value
        replica.ts = ts
        replica.valid = True
        replica.winner_ts = ts
        replica.winner_writer = self.name
        self._apply_with_upcalls(ReplicaWrite(var, value), own_write=True)
        self._propagated_values.add((var, value))
        done()
        self.network.broadcast(
            self.name, Invalidation(var, ts, self.name, self.proc_index)
        )
        self._serve_blocked_requests()

    def _handle_read(self, var: str, done: Callable[[Any], None]) -> None:
        replica = self._replica(var)
        if replica.valid:
            self._extra = self._extra.merge(replica.ts)
            done(replica.value)
            return
        self._fetch(var, replica.winner_writer, done)

    def local_value(self, var: str) -> Any:
        return self._replica(var).value

    def replica_valid(self, var: str) -> bool:
        return self._replica(var).valid

    def _commit(self, update: ReplicaWrite) -> None:
        """Nothing: the replica in :attr:`_replicas` changes where the
        value arrives (an own write, a fetch reply), so the upcall
        bracket only announces it."""

    # -- invalidation propagation ----------------------------------------------------

    def _on_message(self, src: str, payload: Any) -> None:
        if isinstance(payload, Invalidation):
            self._holdback.arrive(payload, self._ready, self._apply_invalidation)
            self._serve_blocked_requests()
        elif isinstance(payload, FetchRequest):
            self._blocked_requests.append(payload)
            self._serve_blocked_requests()
        elif isinstance(payload, FetchReply):
            self._extra = self._extra.merge(payload.ts)
            self._cache_fetched(payload.var, payload.value, payload.ts, payload.writer)
            self._pending_fetches.pop(payload.fetch_id)(payload.value)
        elif isinstance(payload, FetchRedirect):
            self.redirects += 1
            done = self._pending_fetches.pop(payload.fetch_id)
            self._fetch(payload.var, payload.next_writer, done)
        else:
            raise TypeError(f"{self.name}: unexpected payload {payload!r}")

    def _ready(self, invalidation: Invalidation) -> bool:
        return invalidation.ts.causally_ready(self._applied, invalidation.sender_index)

    @staticmethod
    def _arbitration_key(ts: VectorClock, writer: str) -> tuple[int, str]:
        """A *total* order on writes, consistent with causal order.

        The clock-entry sum strictly increases along causal chains, and
        the writer name breaks ties between concurrent writes. Totality
        (rather than a dominance tournament) is essential: every replica's
        winner pointer chases strictly increasing keys, so fetch chases
        terminate even when three or more concurrent writers invalidate
        each other.
        """
        return (sum(ts.get(proc) for proc in ts.processes()), writer)

    @classmethod
    def _wins(
        cls,
        new_ts: VectorClock,
        new_writer: str,
        old_ts: VectorClock,
        old_writer: Optional[str],
    ) -> bool:
        if old_writer is None:
            return True
        return cls._arbitration_key(new_ts, new_writer) > cls._arbitration_key(
            old_ts, old_writer
        )

    def _apply_invalidation(self, invalidation: Invalidation) -> None:
        replica = self._replica(invalidation.var)
        if self._wins(
            invalidation.ts, invalidation.writer, replica.winner_ts, replica.winner_writer
        ):
            replica.winner_ts = invalidation.ts
            replica.winner_writer = invalidation.writer
            replica.valid = False  # the winning copy lives at a remote writer
        self._applied = self._applied.merge(invalidation.ts)
        self.invalidations_applied += 1
        if self.has_interconnect:
            # The IS adapter: restore the propagation contract by fetching
            # the value; upcalls are delivered at reply time, in strictly
            # serialised (hence causal) order.
            self._upcall_fetch_queue.append(invalidation)
            self._pump_upcall_fetches()

    # -- fetch path --------------------------------------------------------------------

    def _fetch(self, var: str, target: Optional[str], done: Callable[[Any], None]) -> None:
        if target is None or target == self.name:
            # No known writer: the replica was never written; serve locally.
            replica = self._replica(var)
            self._extra = self._extra.merge(replica.ts)
            done(replica.value)
            return
        self.fetches += 1
        fetch_id = self.fetches
        self._pending_fetches[fetch_id] = done
        self.network.send(
            self.name, target, FetchRequest(fetch_id, var, self._ctx, self.name)
        )

    def _cache_fetched(self, var: str, value: Any, ts: VectorClock, writer: str) -> None:
        replica = self._replica(var)
        current = ts == replica.winner_ts or self._wins(
            ts, writer, replica.winner_ts, replica.winner_writer
        )
        if replica.valid and not current:
            # A newer write (say the IS-process's own) landed while the
            # fetch was in flight: the valid copy must not go stale.
            return
        replica.value = value
        replica.ts = ts
        if current:
            # We fetched the (current or even newer) winner: valid again.
            replica.winner_ts = ts
            replica.winner_writer = writer
            replica.valid = True
        # Otherwise a newer invalidation raced in: keep the value as a
        # stale cache, but the replica stays invalid.

    def _serve_blocked_requests(self) -> None:
        still_blocked = []
        for request in self._blocked_requests:
            if not self._applied.dominates(request.ctx):
                still_blocked.append(request)
                continue
            replica = self._replica(request.var)
            if replica.valid:
                reply = FetchReply(
                    request.fetch_id,
                    request.var,
                    replica.value,
                    replica.ts,
                    replica.winner_writer or self.name,
                )
                self.network.send(self.name, request.requester, reply)
            elif replica.winner_writer and replica.winner_writer != self.name:
                redirect = FetchRedirect(request.fetch_id, request.var, replica.winner_writer)
                self.network.send(self.name, request.requester, redirect)
            else:  # pragma: no cover - defensive: writer always has a valid copy
                still_blocked.append(request)
        self._blocked_requests = still_blocked

    # -- IS adapter: serialised fetch-then-upcall ---------------------------------------------

    def _pump_upcall_fetches(self) -> None:
        if self._upcall_fetch_active or not self._upcall_fetch_queue:
            return
        invalidation = self._upcall_fetch_queue.popleft()
        self._upcall_fetch_active = True

        def on_value(value: Any) -> None:
            replica_now = self._replica(invalidation.var)
            key = (invalidation.var, replica_now.value)
            if replica_now.valid and key not in self._propagated_values:
                # Condition (c): the post_update read must return the new
                # value, so only upcall while the fetched copy is valid.
                # If a newer invalidation raced in, skip: its own queued
                # fetch will propagate the newer value (invalidation
                # coalescing — intermediate values may be elided).
                self._propagated_values.add(key)
                self._apply_with_upcalls(ReplicaWrite(*key))
            self._upcall_fetch_active = False
            self._pump_upcall_fetches()

        self._fetch(invalidation.var, invalidation.writer, on_value)


INVALIDATION_CAUSAL = register(
    ProtocolSpec(
        name="invalidation-causal",
        factory=InvalidationCausalMCS,
        causal_updating=True,  # invalidations apply causally; IS fetches serialised
        consistency="causal",
    )
)

__all__ = [
    "InvalidationCausalMCS",
    "INVALIDATION_CAUSAL",
    "Invalidation",
    "FetchRequest",
    "FetchReply",
    "FetchRedirect",
]
