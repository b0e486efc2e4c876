"""Scheduler policies used by the explorer.

A *decision trace* is a sequence of scheduling tags: at the i-th decision
point of a run (a step where the kernel offers more than one enabled
event), the trace names the tag of the event to fire. The kernel offers
one head per tag group (untagged events form the single ``None`` group),
so tags are unique among a decision's candidates and a tag sequence names
a schedule by itself, independent of the order the candidates come in.
Because runs are deterministic given their decisions, the same trace
against the same scenario always reproduces the same execution — that is
what makes counterexamples replayable artefacts.

:class:`TracePolicy` follows a trace prefix and then defaults to the first
candidate (the kernel's own tie-break), recording the tag of every chosen
event in ``trace``; it is both the replay vehicle and the base class for
the exploring policy in :mod:`repro.explore.engine`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import ExplorationError
from repro.sim.core import EnabledEvent, SchedulerPolicy


def dependent(tag_a: Optional[str], tag_b: Optional[str], aliases: dict) -> bool:
    """Conservative dependence between two scheduling domains.

    Untagged events conflict with everything. Tagged events conflict when
    they act on the same target component: a channel delivery targets the
    channel's destination node, a process event targets the process (or
    the MCS-process it drives). *aliases* maps IS-process names to the
    scheduling domain of their attached MCS-process, so a pair arriving on
    the inter-IS channel conflicts with that IS-process's local writes.
    """
    if tag_a is None or tag_b is None:
        return True
    return target_of(tag_a, aliases) == target_of(tag_b, aliases)


def target_of(tag: str, aliases: dict) -> str:
    if tag.startswith("proc:"):
        raw = tag[len("proc:"):]
    elif tag.startswith("chan:"):
        # The destination follows the last "->"; reordered and duplicate
        # frames carry a per-frame "#..." suffix on the channel tag.
        raw = tag.rpartition("->")[2].partition("#")[0]
    else:
        raw = tag
    return aliases.get(raw, raw)


class TracePolicy(SchedulerPolicy):
    """Follow a tag-trace prefix, then the canonical default order."""

    def __init__(self, prefix: Sequence[Optional[str]] = ()) -> None:
        self.prefix = list(prefix)
        #: The tag of the event chosen at each decision so far.
        self.trace: list[Optional[str]] = []

    @property
    def decision_count(self) -> int:
        return len(self.trace)

    def choose(self, candidates: Sequence[EnabledEvent]) -> int:
        position = len(self.trace)
        if position < len(self.prefix):
            wanted = self.prefix[position]
            for pick, candidate in enumerate(candidates):
                if candidate.tag == wanted:
                    break
            else:
                raise ExplorationError(
                    f"schedule mismatch at decision {position}: tag "
                    f"{wanted!r} is not enabled; the enabled tags are "
                    f"{[candidate.tag for candidate in candidates]} — the "
                    "trace was recorded against a different scenario"
                )
        else:
            pick = self._default_choice(position, candidates)
        self.trace.append(candidates[pick].tag)
        return pick

    def _default_choice(
        self, position: int, candidates: Sequence[EnabledEvent]
    ) -> int:
        """Choice beyond the prefix; subclasses hook exploration in here."""
        return 0


__all__ = ["TracePolicy", "dependent", "target_of"]
