"""Operation response-time statistics (§6: "our IS-protocols should not
affect the response time a process observes")."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.memory.system import DSMSystem


@dataclass(frozen=True)
class ResponseStats:
    """Summary statistics of operation response times."""

    count: int
    mean: float
    maximum: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "ResponseStats":
        if not samples:
            return cls(count=0, mean=0.0, maximum=0.0)
        return cls(count=len(samples), mean=sum(samples) / len(samples), maximum=max(samples))


def response_stats(systems: Iterable[DSMSystem]) -> ResponseStats:
    """Aggregate response times over every application process.

    Read off the recorded history: each operation carries its issue and
    response times. Samples run system by system, process by process,
    each in program order.
    """
    samples: list[float] = []
    for system in systems:
        history = system.recorder.history()
        for app in system.app_processes:
            samples.extend(
                op.response_time - op.issue_time for op in history.of_process(app.name)
            )
    return ResponseStats.from_samples(samples)


__all__ = ["ResponseStats", "response_stats"]
