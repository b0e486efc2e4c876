"""Replayable counterexample schedules.

A schedule is the durable form of a counterexample: the scenario name, the
(minimised) tag trace, and the bad patterns the trace is expected to
reproduce. Because runs are deterministic given their decisions, a
schedule replays bit-for-bit on any machine — the JSON files under
``tests/corpus/`` are regression tests, not documentation.

Format (``repro-schedule/2``): ``"trace"`` lists the scheduling tag fired
at each decision (``null`` for the untagged group)::

    {
      "format": "repro-schedule/2",
      "scenario": "faulty-fifo",
      "trace": ["proc:S0/mcs:A", "chan:S0:S0/mcs:A->S0/mcs:B", "proc:S0/mcs:C"],
      "expected_patterns": ["WriteHBInitRead"],
      "note": "free text, ignored by the replayer"
    }

``repro-schedule/1`` stored candidate indices, which shift meaning
whenever candidate order changes; such files are rejected and must be
re-saved with ``repro explore --save``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro.checker.report import CheckResult
from repro.errors import ExplorationError
from repro.explore.engine import Counterexample, run_with_trace

FORMAT = "repro-schedule/2"


@dataclass
class Schedule:
    """A named, replayable tag trace."""

    scenario: str
    trace: list[Optional[str]]
    expected_patterns: list[str] = field(default_factory=list)
    note: str = ""

    @classmethod
    def from_counterexample(
        cls, counterexample: Counterexample, note: str = ""
    ) -> "Schedule":
        return cls(
            scenario=counterexample.scenario,
            trace=list(counterexample.trace),
            expected_patterns=sorted(set(counterexample.patterns)),
            note=note,
        )

    def to_json(self) -> str:
        return json.dumps(
            {
                "format": FORMAT,
                "scenario": self.scenario,
                "trace": self.trace,
                "expected_patterns": self.expected_patterns,
                "note": self.note,
            },
            indent=2,
        ) + "\n"


def save_schedule(schedule: Schedule, path: Union[str, Path]) -> Path:
    path = Path(path)
    path.write_text(schedule.to_json(), encoding="utf-8")
    return path


def load_schedule(path: Union[str, Path]) -> Schedule:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ExplorationError(f"cannot read schedule {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ExplorationError(f"{path}: malformed schedule: not a JSON object")
    if raw.get("format") != FORMAT:
        raise ExplorationError(
            f"{path}: unknown schedule format {raw.get('format')!r} "
            f"(expected {FORMAT!r}); re-save the schedule with "
            "`repro explore --save`"
        )
    try:
        trace = raw["trace"]
        scenario = str(raw["scenario"])
    except (KeyError, TypeError) as exc:
        raise ExplorationError(f"{path}: malformed schedule: {exc}") from exc
    if not isinstance(trace, list) or not all(
        step is None or isinstance(step, str) for step in trace
    ):
        raise ExplorationError(
            f"{path}: malformed schedule: the trace must list tags or null"
        )
    return Schedule(
        scenario=scenario,
        trace=trace,
        expected_patterns=[str(p) for p in raw.get("expected_patterns", [])],
        note=str(raw.get("note", "")),
    )


def replay_schedule(
    schedule: Union[Schedule, str, Path],
    *,
    check_theorem1: bool = False,
    strict: bool = True,
) -> CheckResult:
    """Re-execute a schedule against a fresh build of its scenario.

    With ``strict`` (the default), the verdict must match the schedule's
    expectation — every expected pattern present, and a clean pass iff no
    patterns were expected — otherwise :class:`ExplorationError` is
    raised. This is what makes corpus files self-checking.
    """
    if not isinstance(schedule, Schedule):
        schedule = load_schedule(schedule)
    from repro.explore.scenarios import get_scenario

    factory = get_scenario(schedule.scenario).factory
    result, verdict = run_with_trace(
        factory, schedule.trace, check_theorem1=check_theorem1
    )
    result.close()
    if strict:
        got = {violation.pattern for violation in verdict.violations}
        expected = set(schedule.expected_patterns)
        if expected and not expected <= got:
            raise ExplorationError(
                f"schedule for {schedule.scenario!r} no longer reproduces "
                f"{sorted(expected - got)}; replay produced "
                f"{sorted(got) or 'a clean run'}"
            )
        if not expected and not verdict.ok:
            raise ExplorationError(
                f"schedule for {schedule.scenario!r} was recorded as clean "
                f"but replay violates {sorted(got)}"
            )
    return verdict


__all__ = [
    "Schedule",
    "save_schedule",
    "load_schedule",
    "replay_schedule",
    "FORMAT",
]
