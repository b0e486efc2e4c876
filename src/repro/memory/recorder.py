"""Recording of completed operations into histories.

One :class:`HistoryRecorder` serves an entire simulation (possibly spanning
several interconnected systems); the paper's per-system and global
computations are projections of the single recorded stream
(:meth:`repro.memory.history.History.for_system`,
:meth:`~repro.memory.history.History.without_interconnect`).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Any

from repro.memory.history import History
from repro.memory.operations import Operation, OpKind


class HistoryRecorder:
    """Accumulates completed operations in completion order."""

    def __init__(self) -> None:
        self._ops: list[Operation] = []
        self._op_ids = itertools.count()
        self._seq: dict[str, itertools.count] = defaultdict(itertools.count)
        self._per_proc: dict[str, list[tuple]] = {}
        self._signed = 0  # ops already folded into _per_proc

    def record(
        self,
        kind: OpKind,
        proc: str,
        var: str,
        value: Any,
        system: str,
        issue_time: float,
        response_time: float,
        is_interconnect: bool = False,
    ) -> Operation:
        """Record one completed operation and return it."""
        op = Operation(
            op_id=next(self._op_ids),
            kind=kind,
            proc=proc,
            var=var,
            value=value,
            seq=next(self._seq[proc]),
            system=system,
            issue_time=issue_time,
            response_time=response_time,
            is_interconnect=is_interconnect,
        )
        self._ops.append(op)
        return op

    @property
    def count(self) -> int:
        return len(self._ops)

    def signature(self) -> tuple:
        """Per-process operation sequences, sorted by process name.

        Unlike the completion order of :meth:`history`, this does not
        depend on how the processes' operations interleaved, so the
        explorer keys states and counts distinct outcomes with it. Kept
        incrementally, from the first call on: each call folds in only
        the operations recorded since the last, and builds no
        :class:`History`.
        """
        for op in itertools.islice(self._ops, self._signed, None):
            self._per_proc.setdefault(op.proc, []).append(
                (op.kind.value, op.var, repr(op.value), op.is_interconnect)
            )
        self._signed = len(self._ops)
        return tuple(sorted((proc, tuple(ops)) for proc, ops in self._per_proc.items()))

    def history(self) -> History:
        """Snapshot of everything recorded so far."""
        return History(self._ops)


__all__ = ["HistoryRecorder"]
