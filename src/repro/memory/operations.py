"""Memory operations and the vocabulary of computations (§2 of the paper).

A *computation* is the sequence of read and write operations observed in an
execution. We record each operation with enough metadata to reconstruct
program order, reads-from edges, and the paper's per-system / global
projections:

* ``proc`` — the issuing application process (IS-processes included),
* ``system`` — which DSM system the operation was issued in,
* ``seq`` — the operation's index in its process's program order,
* ``is_interconnect`` — True for operations issued by IS-processes, which
  belong to per-system computations (alpha^k) but are excluded from the
  global computation (alpha^T, §4).

Following the paper we assume a given value is written at most once per
variable; :meth:`repro.memory.history.History.validate` enforces it. The
initial value of every variable is ``INITIAL_VALUE`` (= ``None``), which is
therefore not a legal value to write.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Any, Optional

INITIAL_VALUE: None = None
"""The value a read returns when no write to the variable is visible."""


class OpKind(enum.Enum):
    """Read or write."""

    READ = "r"
    WRITE = "w"


@dataclass(frozen=True, slots=True)
class Operation:
    """One completed memory operation.

    Uses the paper's notation: ``w_i^q(x)v`` is rendered as
    ``w[i@q](x)v`` by :meth:`__str__`. Slotted: a run keeps every
    operation it records, and a per-instance dict would add about 40%
    to each one's memory.
    """

    op_id: int
    kind: OpKind
    proc: str
    var: str
    value: Any
    seq: int
    system: str
    issue_time: float
    response_time: float
    is_interconnect: bool = False

    @property
    def is_read(self) -> bool:
        return self.kind is OpKind.READ

    @property
    def is_write(self) -> bool:
        return self.kind is OpKind.WRITE

    @property
    def reads_initial(self) -> bool:
        return self.is_read and self.value is INITIAL_VALUE

    def with_system(self, system: str, proc: Optional[str] = None) -> "Operation":
        """Relabel the operation (used when an IS write is viewed as the
        propagation of an original write, Definition 7)."""
        return replace(self, system=system, proc=proc if proc is not None else self.proc)

    def __str__(self) -> str:
        return f"{self.kind.value}[{self.proc}@{self.system}]({self.var}){self.value!r}"


__all__ = ["Operation", "OpKind", "INITIAL_VALUE"]
