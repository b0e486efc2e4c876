"""Write-ahead log + checkpoint for IS-process propagation state.

An IS-process holds exactly four pieces of state that must survive a
crash for the interconnection to stay causal:

* the **transport sessions** — per peer, the next outgoing sequence
  number with the set of sent-but-unacknowledged pairs, and the incoming
  delivery high-water mark (next expected sequence);
* the **pending incoming pairs** — received (and acknowledged!) but not
  yet handed to the local MCS-process as a ``Propagate_in`` write;
* the **seen-pair set** — which ``<x, v>`` pairs have already been
  accepted, making ``Propagate_in`` idempotent across restarts (§2's
  value-uniqueness discipline makes ``(var, value)`` a sound key);
* the **last value read per variable** during ``Propagate_out`` — the
  recovery scan's reference point for values propagated before the crash.

The log is a sequence of :class:`WalRecord` entries. Each append folds
into a live :class:`RecoveredState` snapshot, so recovery is O(1) and a
*checkpoint* is simply "truncate the record tail" — the snapshot is the
checkpoint. Records are retained between checkpoints (and optionally
streamed to a JSON-lines file) so campaigns can report WAL traffic.

Durability model: the WAL object survives the simulated crash of its
owning process (it stands in for stable storage); everything else in the
process is volatile and rebuilt from :meth:`WriteAheadLog.recover` by
:mod:`repro.resilience.recovery`.

Write ordering discipline (who appends what, and when):

* ``RECV`` is appended *before* the transport acknowledges the frame —
  a pair is never acked until it is durable;
* ``ISSUED`` is appended in the same event that hands the write to the
  MCS-process, so "was this pair applied?" has a crash-unambiguous
  answer and no pair is ever written twice;
* ``SENT`` is appended when the transport assigns the sequence number,
  *before* the frame first touches the wire, so a recovering sender
  reuses the original numbering and the peer's receiver deduplicates
  retransmissions exactly like wire duplicates.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import ConfigurationError

RECV = "recv"
ISSUED = "issued"
SENT = "sent"
ACKED = "acked"
VALUE = "value"

_KINDS = frozenset({RECV, ISSUED, SENT, ACKED, VALUE})


@dataclass(frozen=True)
class WalRecord:
    """One durable log entry. Unused fields stay at their defaults."""

    kind: str
    peer: str = ""
    seq: int = -1
    var: str = ""
    value: Any = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown WAL record kind {self.kind!r}")


@dataclass
class SessionState:
    """Both directions of one peer link's transport session."""

    next_seq: int = 0
    #: seq -> (var, value) for sent-but-unacknowledged outgoing pairs.
    unacked: dict[int, tuple[str, Any]] = field(default_factory=dict)
    acked_cumulative: int = 0
    next_expected: int = 0


@dataclass
class RecoveredState:
    """The folded image of the log: everything recovery needs."""

    seen_pairs: set[tuple[str, Any]] = field(default_factory=set)
    #: (peer, seq, var, value) received but not yet issued to the MCS,
    #: in arrival order (which is the causal pair order — Lemma 1).
    unissued: list[tuple[str, int, str, Any]] = field(default_factory=list)
    sessions: dict[str, SessionState] = field(default_factory=dict)
    last_values: dict[str, Any] = field(default_factory=dict)

    def session(self, peer: str) -> SessionState:
        return self.sessions.setdefault(peer, SessionState())


class WriteAheadLog:
    """An append-only log with fold-on-append checkpointing.

    Args:
        name: diagnostic label.
        checkpoint_every: automatic checkpoint period, in appended
            records; 0 disables automatic checkpoints.
        path: optional JSON-lines file mirroring every record (values are
            serialised with ``repr`` fallback; the in-memory log is the
            source of truth for recovery).
    """

    def __init__(
        self,
        name: str = "wal",
        checkpoint_every: int = 256,
        path: Optional[str] = None,
    ) -> None:
        if checkpoint_every < 0:
            raise ConfigurationError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
        self.name = name
        self.checkpoint_every = checkpoint_every
        self.path = path
        self._state = RecoveredState()
        self._tail: list[WalRecord] = []
        self.appends = 0
        self.checkpoints_taken = 0
        self.recoveries_served = 0
        #: Optional observer invoked after every append (the owning
        #: process emits a ``wal.append`` trace event from it; the WAL
        #: itself stays simulator-free).
        self.on_append: Optional[Callable[[WalRecord], None]] = None

    # -- writing ------------------------------------------------------------

    def append(self, record: WalRecord) -> None:
        """Durably append *record* (fold it into the live snapshot)."""
        self._fold(record)
        self._tail.append(record)
        self.appends += 1
        if self.on_append is not None:
            self.on_append(record)
        if self.path is not None:
            self._write_line(record)
        if self.checkpoint_every and len(self._tail) >= self.checkpoint_every:
            self.checkpoint()

    def log(self, kind: str, peer: str = "", seq: int = -1, var: str = "", value: Any = None) -> None:
        """Convenience wrapper around :meth:`append`."""
        self.append(WalRecord(kind=kind, peer=peer, seq=seq, var=var, value=value))

    def checkpoint(self) -> None:
        """Truncate the record tail; the folded snapshot is the checkpoint."""
        self._tail.clear()
        self.checkpoints_taken += 1

    # -- recovery -----------------------------------------------------------

    def recover(self) -> RecoveredState:
        """The state a restarting process must rebuild, as a private copy."""
        self.recoveries_served += 1
        return copy.deepcopy(self._state)

    # -- folding ------------------------------------------------------------

    def _fold(self, record: WalRecord) -> None:
        state = self._state
        if record.kind == SENT:
            session = state.session(record.peer)
            session.unacked[record.seq] = (record.var, record.value)
            session.next_seq = max(session.next_seq, record.seq + 1)
        elif record.kind == ACKED:
            session = state.session(record.peer)
            session.acked_cumulative = max(session.acked_cumulative, record.seq)
            for seq in [s for s in session.unacked if s < record.seq]:
                del session.unacked[seq]
        elif record.kind == RECV:
            session = state.session(record.peer)
            session.next_expected = max(session.next_expected, record.seq + 1)
            state.seen_pairs.add((record.var, record.value))
            state.unissued.append((record.peer, record.seq, record.var, record.value))
        elif record.kind == ISSUED:
            state.unissued = [
                entry for entry in state.unissued
                if not (entry[0] == record.peer and entry[1] == record.seq)
            ]
        elif record.kind == VALUE:
            state.last_values[record.var] = record.value

    # -- diagnostics --------------------------------------------------------

    @property
    def tail_length(self) -> int:
        """Records appended since the last checkpoint."""
        return len(self._tail)

    def _write_line(self, record: WalRecord) -> None:
        payload = {
            "kind": record.kind, "peer": record.peer, "seq": record.seq,
            "var": record.var, "value": record.value,
        }
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(payload, default=repr) + "\n")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"WriteAheadLog({self.name!r}, appends={self.appends}, "
            f"tail={len(self._tail)}, checkpoints={self.checkpoints_taken})"
        )


__all__ = [
    "WalRecord",
    "SessionState",
    "RecoveredState",
    "WriteAheadLog",
    "RECV",
    "ISSUED",
    "SENT",
    "ACKED",
    "VALUE",
]
