"""Replay-based DFS over scheduling decisions.

The kernel cannot snapshot arbitrary Python closures, so the explorer is
*stateless* in the model-checking sense: to explore a different branch it
rebuilds the scenario from its factory and re-executes the run, following
a recorded decision-trace prefix before diverging (the style of stateless
model checkers such as VeriSoft/Coyote). Determinism of the kernel makes
replay exact, so a prefix fully identifies a subtree.

Two reductions keep the tree tractable:

* **Sleep sets** (Godefroid-style, keyed on scheduling-domain tags): after
  exploring the branch that fires event *a* at a node, sibling branches
  carry *a* in their sleep set — *a* need not be fired again until some
  dependent event executes and wakes it. Dependence is the conservative
  per-process/per-channel relation of :func:`repro.explore.policy.dependent`.
* **State fingerprints**: a node whose global state (replicas, in-flight
  messages, IS state, observable history) was already expanded with a
  subset sleep set is pruned — its subtree is covered by the earlier
  visit. The subset condition is required for soundness of combining the
  two reductions: a later visit with a *smaller* sleep set has more
  behaviours to cover and is re-expanded.

Every completed interleaving gets a verdict from
:func:`repro.checker.check_causal` and, optionally, from the Theorem 1
proof construction. Failing traces are reported as
:class:`Counterexample`\\ s, ready for :mod:`repro.explore.shrink`.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.checker import check_causal
from repro.checker.report import CheckResult
from repro.errors import CheckerError, ExplorationError
from repro.explore.fingerprint import _iter_is_processes, state_fingerprint
from repro.explore.policy import TracePolicy, dependent
from repro.sim.core import EnabledEvent

logger = logging.getLogger(__name__)

#: Reduction modes, strongest first.
REDUCTIONS = ("sleep", "fingerprint", "none")


class _PruneRun(Exception):
    """Raised by the exploring policy to abandon a redundant run."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class _Branch:
    prefix: tuple[int, ...]
    sleep: frozenset[str]


@dataclass(frozen=True)
class _BranchRecord:
    """A post-prefix decision point, remembered for sibling generation."""

    position: int
    tags: tuple[Optional[str], ...]
    sleep: frozenset[str]
    explorable: tuple[int, ...]


@dataclass
class Counterexample:
    """A decision trace whose execution violates the checked property."""

    scenario: str
    trace: list[int]
    patterns: list[str]
    detail: str
    shrunk_from: Optional[int] = None

    @property
    def decisions(self) -> int:
        return len(self.trace)


@dataclass
class ExploreResult:
    """Outcome of one exploration campaign."""

    scenario: str
    explored: int = 0  #: complete interleavings that received a verdict
    pruned_fingerprint: int = 0
    pruned_sleep: int = 0
    truncated: int = 0  #: runs that hit the per-run decision budget
    exhausted: bool = False  #: the whole (reduced) tree fit in the budget
    violations: list[Counterexample] = field(default_factory=list)
    max_decisions_seen: int = 0
    #: Recorder signatures of the complete interleavings: per-process
    #: operation sequences with the values read. Parallel workers return
    #: theirs, so the merged set does not depend on the worker count.
    terminal_histories: set[tuple] = field(default_factory=set)

    @property
    def distinct_histories(self) -> int:
        """Distinct terminal histories reached: the search's coverage."""
        return len(self.terminal_histories)

    @property
    def runs(self) -> int:
        return self.explored + self.pruned_fingerprint + self.pruned_sleep

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        outcome = "exhausted" if self.exhausted else "budget-capped"
        verdict = (
            "no violations"
            if self.ok
            else f"{len(self.violations)} violating schedule(s)"
        )
        return (
            f"[{self.scenario}] {self.explored} interleavings explored, "
            f"{self.pruned_sleep + self.pruned_fingerprint} pruned "
            f"({self.pruned_sleep} sleep-set, {self.pruned_fingerprint} "
            f"fingerprint), {self.distinct_histories} distinct terminal "
            f"histories, {outcome}: {verdict}"
        )


def scheduling_aliases(result) -> dict[str, str]:
    """Map IS-process names to their MCS-process scheduling domain, so
    inter-IS channel deliveries conflict with that IS-process's writes."""
    aliases: dict[str, str] = {}
    for isp in _iter_is_processes(result):
        mcs = getattr(isp, "mcs", None)
        target = getattr(mcs, "name", None)
        if target:
            aliases[isp.name] = target
    return aliases


class _ExplorerPolicy(TracePolicy):
    def __init__(
        self,
        prefix: Sequence[int],
        sleep: frozenset[str],
        *,
        visited: dict[int, list[frozenset[str]]],
        fingerprint_fn: Callable[[], int],
        aliases: dict[str, str],
        reduction: str,
        max_decisions: Optional[int],
    ) -> None:
        super().__init__(prefix)
        self._sleep = set(sleep)
        self._armed = not self.prefix
        self._visited = visited
        self._fingerprint_fn = fingerprint_fn
        self._aliases = aliases
        self._use_sleep = reduction == "sleep"
        self._use_fingerprints = reduction in ("sleep", "fingerprint")
        self._max_decisions = max_decisions
        self.records: list[_BranchRecord] = []
        self.truncated = False

    def choose(self, candidates: Sequence[EnabledEvent]) -> int:
        position = len(self.trace)
        pick = super().choose(candidates)
        if position == len(self.prefix) - 1:
            # The branching choice itself has been taken: the sleep set
            # handed down by the parent run is in force from here on.
            self._armed = True
        return pick

    def executed(self, event: EnabledEvent) -> None:
        if self._armed and self._sleep:
            self._sleep = {
                tag
                for tag in self._sleep
                if not dependent(tag, event.tag, self._aliases)
            }

    def _default_choice(
        self, position: int, candidates: Sequence[EnabledEvent]
    ) -> int:
        if self.truncated:
            return 0
        if (
            self._max_decisions is not None
            and position - len(self.prefix) >= self._max_decisions
        ):
            self.truncated = True
            return 0
        if self._use_fingerprints:
            fingerprint = self._fingerprint_fn()
            stored = self._visited.get(fingerprint)
            if stored is not None and any(
                sleep <= self._sleep for sleep in stored
            ):
                raise _PruneRun("fingerprint")
            self._visited.setdefault(fingerprint, []).append(
                frozenset(self._sleep)
            )
        if self._use_sleep:
            explorable = tuple(
                index
                for index, candidate in enumerate(candidates)
                if candidate.tag is None or candidate.tag not in self._sleep
            )
            if not explorable:
                raise _PruneRun("sleep")
        else:
            explorable = tuple(range(len(candidates)))
        self.records.append(
            _BranchRecord(
                position=position,
                tags=tuple(candidate.tag for candidate in candidates),
                sleep=frozenset(self._sleep),
                explorable=explorable,
            )
        )
        return explorable[0]


def run_with_trace(
    factory: Callable[[], "object"],
    trace: Sequence[int] = (),
    *,
    max_steps: int = 100_000,
    check_theorem1: bool = False,
    instruments=None,
):
    """Replay *trace* against a fresh scenario; return (result, verdict).

    The verdict is the causal check of the global computation alpha^T,
    downgraded to a failing pseudo-verdict if the Theorem 1 construction
    (when requested) does not go through.

    *instruments* (a :class:`repro.obs.instruments.Instruments`) attaches
    tracing/metrics to the replayed run — the supported way to get a full
    event timeline of a counterexample schedule.
    """
    result = factory()
    policy = TracePolicy(trace)
    result.sim.policy = policy
    if instruments is not None:
        result.sim.instruments = instruments
    result.sim.run(max_events=max_steps)
    if result.sim.pending:
        raise ExplorationError(
            f"scenario did not quiesce within {max_steps} events"
        )
    for system in result.systems:
        system.check_quiescent()
    verdict = _verdict(result, check_theorem1)
    return result, verdict


def _verdict(result, check_theorem1: bool) -> CheckResult:
    verdict = check_causal(result.global_history)
    if verdict.ok and check_theorem1:
        from repro.checker.theorem1 import verify_theorem1_construction

        full = result.recorder.history()
        for proc in sorted(
            {op.proc for op in full if not op.is_interconnect}
        ):
            try:
                verify_theorem1_construction(full, proc)
            except CheckerError as exc:
                verdict.ok = False
                from repro.checker.report import Violation

                verdict.violations.append(
                    Violation(
                        pattern="Theorem1Construction",
                        process=proc,
                        operations=(),
                        detail=str(exc),
                    )
                )
                break
    return verdict


def _dfs(
    scenario: str,
    factory: Callable[[], "object"],
    outcome: ExploreResult,
    stack: list[_Branch],
    visited: dict[int, list[frozenset[str]]],
    *,
    max_interleavings: int,
    max_decisions: Optional[int],
    max_steps: int,
    reduction: str,
    check_theorem1: bool,
    stop_after: Optional[int],
    on_progress: Optional[Callable[[ExploreResult], None]],
    frontier_target: Optional[int] = None,
) -> tuple[bool, list[_Branch]]:
    """The stateless-DFS work loop shared by :func:`explore` and the
    parallel engine (:mod:`repro.explore.parallel`).

    Pops branches off *stack*, replays them, accumulates verdicts into
    *outcome* and pushes sibling branches back, exactly as the classic
    sequential loop does. With *frontier_target* set, the loop stops as
    soon as the stack holds at least that many branches (the parallel
    bootstrap: the remaining stack entries become work-units). Returns
    ``(budget_hit, stack)``.
    """
    budget_hit = False
    while stack:
        if frontier_target is not None and len(stack) >= frontier_target:
            break
        if outcome.runs >= max_interleavings:
            budget_hit = True
            break
        branch = stack.pop()
        result = factory()
        policy = _ExplorerPolicy(
            branch.prefix,
            branch.sleep,
            visited=visited,
            fingerprint_fn=lambda: state_fingerprint(result),
            aliases=scheduling_aliases(result),
            reduction=reduction,
            max_decisions=max_decisions,
        )
        result.sim.policy = policy
        pruned: Optional[str] = None
        try:
            result.sim.run(max_events=max_steps)
        except _PruneRun as prune:
            pruned = prune.reason
        if pruned == "fingerprint":
            outcome.pruned_fingerprint += 1
        elif pruned == "sleep":
            outcome.pruned_sleep += 1
        else:
            if result.sim.pending:
                raise ExplorationError(
                    f"scenario {scenario!r} did not quiesce within "
                    f"{max_steps} events — is an interleaving unbounded?"
                )
            for system in result.systems:
                system.check_quiescent()
            outcome.explored += 1
            outcome.max_decisions_seen = max(
                outcome.max_decisions_seen, policy.decision_count
            )
            if policy.truncated:
                outcome.truncated += 1
            outcome.terminal_histories.add(result.recorder.signature())
            verdict = _verdict(result, check_theorem1)
            if not verdict.ok:
                logger.info(
                    "violating schedule in %r after %d runs: %s",
                    scenario,
                    outcome.runs,
                    [v.pattern for v in verdict.violations],
                )
                outcome.violations.append(
                    Counterexample(
                        scenario=scenario,
                        trace=list(policy.trace),
                        patterns=[v.pattern for v in verdict.violations],
                        detail=verdict.violations[0].detail
                        if verdict.violations
                        else "",
                    )
                )
                if (
                    stop_after is not None
                    and len(outcome.violations) >= stop_after
                ):
                    break
        # Push the siblings of every branch point this run discovered —
        # also for pruned runs: decisions recorded before the prune were
        # genuinely reached and their siblings are not covered elsewhere.
        for record in policy.records:
            base = tuple(policy.trace[: record.position])
            slept: set[str] = set(record.sleep)
            for rank, candidate_index in enumerate(record.explorable):
                if rank > 0:
                    stack.append(
                        _Branch(
                            prefix=base + (candidate_index,),
                            sleep=frozenset(slept),
                        )
                    )
                tag = record.tags[candidate_index]
                if tag is not None:
                    slept.add(tag)
        if outcome.runs % 100 == 0:
            if on_progress is not None:
                on_progress(outcome)
            logger.debug(
                "%r: %d runs (%d explored, %d pruned), stack depth %d",
                scenario,
                outcome.runs,
                outcome.explored,
                outcome.pruned_sleep + outcome.pruned_fingerprint,
                len(stack),
            )
    return budget_hit, stack


def _emit_metrics(
    metrics, outcome: ExploreResult, scenario: str, elapsed: float
) -> None:
    """Per-outcome run counters plus the coverage and throughput gauges.

    ``explored`` counts runs that completed *within* the decision budget;
    truncated runs get their own outcome label so the counters partition
    ``runs`` exactly. The gauge is always emitted — a zero-ish elapsed
    (empty scenario, coarse clock) reports 0.0 instead of silently
    dropping the sample.
    """
    metrics.counter("explore_runs_total", scenario=scenario, outcome="explored").inc(
        outcome.explored - outcome.truncated
    )
    metrics.counter("explore_runs_total", scenario=scenario, outcome="truncated").inc(
        outcome.truncated
    )
    metrics.counter(
        "explore_runs_total", scenario=scenario, outcome="pruned_sleep"
    ).inc(outcome.pruned_sleep)
    metrics.counter(
        "explore_runs_total", scenario=scenario, outcome="pruned_fingerprint"
    ).inc(outcome.pruned_fingerprint)
    metrics.counter("explore_violations_total", scenario=scenario).inc(
        len(outcome.violations)
    )
    metrics.gauge("explore_distinct_histories", scenario=scenario).set(
        outcome.distinct_histories
    )
    rate = outcome.runs / elapsed if elapsed > 0 else 0.0
    metrics.gauge("explore_runs_per_second", scenario=scenario).set(rate)


def explore(
    scenario: str,
    factory: Optional[Callable[[], "object"]] = None,
    *,
    max_interleavings: int = 20_000,
    max_decisions: Optional[int] = 128,
    max_steps: int = 100_000,
    reduction: str = "sleep",
    check_theorem1: bool = False,
    stop_after: Optional[int] = 1,
    on_progress: Optional[Callable[[ExploreResult], None]] = None,
    metrics=None,
) -> ExploreResult:
    """Systematically explore the interleavings of a small scenario.

    Args:
        scenario: name from :data:`repro.explore.scenarios.SCENARIOS`
            (ignored for lookup if *factory* is given; still used as the
            label on results).
        factory: zero-argument callable building a fresh, unrun
            ``ScenarioResult``. Defaults to the registered scenario.
        max_interleavings: total run budget (complete + pruned runs).
        max_decisions: per-run cap on decisions beyond the replayed
            prefix; deeper branch points are not expanded (the run still
            completes and is checked). None removes the cap.
        max_steps: per-run event cap (guards against runaway scenarios).
        reduction: ``"sleep"`` (sleep sets + fingerprints, default),
            ``"fingerprint"`` (fingerprints only) or ``"none"`` (raw DFS).
        check_theorem1: also run the Theorem 1 proof construction on
            every causally-clean interleaving.
        stop_after: stop once this many violating schedules were found
            (None: keep searching the whole budget).
        on_progress: called with the running result every 100 runs.
        metrics: optional :class:`repro.obs.metrics.MetricsRegistry`
            receiving per-outcome run counters and a runs-per-second
            gauge (wall-clock — exploration throughput is a real-time
            quantity, unlike anything recorded in traces).
    """
    if reduction not in REDUCTIONS:
        raise ExplorationError(
            f"unknown reduction {reduction!r}; pick one of {REDUCTIONS}"
        )
    if factory is None:
        from repro.explore.scenarios import get_scenario

        factory = get_scenario(scenario).factory
    outcome = ExploreResult(scenario=scenario)
    visited: dict[int, list[frozenset[str]]] = {}
    stack: list[_Branch] = [_Branch(prefix=(), sleep=frozenset())]
    started_at = time.perf_counter()
    logger.debug("exploring %r (reduction=%s)", scenario, reduction)
    budget_hit, stack = _dfs(
        scenario,
        factory,
        outcome,
        stack,
        visited,
        max_interleavings=max_interleavings,
        max_decisions=max_decisions,
        max_steps=max_steps,
        reduction=reduction,
        check_theorem1=check_theorem1,
        stop_after=stop_after,
        on_progress=on_progress,
    )
    outcome.exhausted = (
        not stack and not budget_hit and outcome.truncated == 0
    )
    if metrics is not None:
        _emit_metrics(
            metrics, outcome, scenario, time.perf_counter() - started_at
        )
    logger.info("%s", outcome.summary())
    return outcome


__all__ = [
    "explore",
    "ExploreResult",
    "Counterexample",
    "run_with_trace",
    "scheduling_aliases",
    "REDUCTIONS",
]
