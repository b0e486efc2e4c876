"""Checker / simulation / explorer throughput suite with a regression gate
(``python -m repro bench``).

Unlike the pytest-benchmark modules under ``benchmarks/`` (which print
rich comparison tables for humans and run with plain
``pytest benchmarks``), this suite times the repo's hot
paths — causality checking, the simulation kernel with a vector-causal
protocol, and interleaving exploration (a gated 500-run bridge-p1 search
plus the ungated sequential-vs-parallel runs) — directly, and
writes a machine-readable ``BENCH_perf.json`` at the repo root. It is
what CI's perf-smoke job runs: fast enough for every push, deterministic
enough to gate on.

Portability of the gate: raw seconds are meaningless across machines, so
every case carries a *calibration score* — the wall time of a fixed
allocation-free loop run just before its timing round (for the
minute-long explorer cases, the mean of one run before and one after)
— and the gate compares calibration-normalized times against the
committed ``benchmarks/perf_baseline.json``. A gated case whose
normalized time exceeds the baseline by more than
:data:`GATE_TOLERANCE` fails the suite.

The baseline file also records the pre-optimization timings measured on
the machine that produced it, which is how the report's
``speedup_vs_pre_optimization`` section turns "the checker got faster"
into a number that survives hardware changes.

The suite additionally *certifies* the parallel explorer: the ``--jobs
2`` run must reach the same exhaustion flag, the same verdicts and the
same terminal histories as the sequential engine on the catalogued
scenario, or the suite fails — determinism is part of the performance
contract, not a separate test.
"""

from __future__ import annotations

import functools
import json
import platform
import statistics
import time
from pathlib import Path
from typing import Callable, Optional

PERF_REPORT = "BENCH_perf.json"
BASELINE_NAME = "perf_baseline.json"

#: Allowed slowdown of a gated case vs the committed baseline (1.30 =
#: fail beyond +30%), after calibration normalization.
GATE_TOLERANCE = 1.30

#: Timing rounds of each gated case.
GATE_ROUNDS = 5

#: A timing round repeats its case until it lasts at least this long, so
#: millisecond-scale cases are timed over about as long as the calibration.
MIN_ROUND_SECONDS = 0.05

#: Iterations of the calibration loop (about 20 ms on a 2020s x86 core).
CALIBRATION_LOOPS = 200_000


def calibrate() -> float:
    """Seconds a fixed interpreter-bound loop takes (machine-speed proxy).

    The loop allocates nothing and calls no repository code, so neither
    the allocator's state nor a change to the program moves it.
    """
    started = time.perf_counter()
    accumulator = 0
    for i in range(CALIBRATION_LOOPS):
        accumulator = (accumulator * 31 + i) & 0xFFFFFFF
    return time.perf_counter() - started


def _best_of(fn: Callable[[], object], rounds: int) -> tuple[float, float, object]:
    """Time *rounds* rounds of *fn*, each just after a :func:`calibrate`.

    The speed of a shared host drifts from one moment to the next, so
    each round is paired with its own calibration. A round calls *fn*
    until :data:`MIN_ROUND_SECONDS` have passed and counts the seconds
    per call. Returns the seconds per call and calibration of the round
    with the lowest ratio of the two, plus the last result.
    """
    best_seconds, best_calibration = float("inf"), 1.0
    value: object = None
    for _ in range(max(1, rounds)):
        calibration = calibrate()
        calls = 0
        started = time.perf_counter()
        while True:
            value = fn()
            calls += 1
            elapsed = time.perf_counter() - started
            if elapsed >= MIN_ROUND_SECONDS:
                break
        seconds = elapsed / calls
        if seconds * best_calibration < best_seconds * calibration:
            best_seconds, best_calibration = seconds, calibration
    return best_seconds, best_calibration, value


def _make_history(processes: int, ops_per_process: int, seed: int = 0):
    """The synthetic single-system workload of ``bench_checker_scaling``."""
    from repro.memory.recorder import HistoryRecorder
    from repro.memory.system import DSMSystem
    from repro.protocols import get
    from repro.sim.core import Simulator
    from repro.workloads import WorkloadSpec, populate_system
    from repro.workloads.scenarios import run_until_quiescent

    sim = Simulator()
    recorder = HistoryRecorder()
    system = DSMSystem(sim, "S", get("vector-causal"), recorder=recorder, seed=seed)
    populate_system(
        system,
        WorkloadSpec(
            processes=processes, ops_per_process=ops_per_process, write_ratio=0.4
        ),
        seed=seed,
    )
    run_until_quiescent(sim, [system])
    return recorder.history()


def _case_checker_causal(rounds: int, ops_per_process: int = 40) -> dict:
    """Cold-cache ``check_causal`` on 8 processes × *ops_per_process*."""
    from repro.checker import check_causal
    from repro.checker.cache import invalidate

    history = _make_history(8, ops_per_process)

    def once():
        invalidate()  # time the cold path: derivation + saturation
        return check_causal(history)

    seconds, calibration, verdict = _best_of(once, rounds)
    return {
        "name": f"checker_causal_{8 * ops_per_process}",
        "seconds": seconds,
        "calibration_seconds": calibration,
        "ops": len(history),
        "ok": bool(verdict.ok),
        "gate": True,
    }


def _case_checker_sessions(rounds: int) -> dict:
    from repro.checker import check_all_session_guarantees
    from repro.checker.cache import invalidate

    history = _make_history(8, 40)

    def once():
        invalidate()
        return check_all_session_guarantees(history)

    seconds, calibration, results = _best_of(once, rounds)
    return {
        "name": "checker_sessions_320",
        "seconds": seconds,
        "calibration_seconds": calibration,
        "ops": len(history),
        "ok": all(result.ok for result in results.values()),
        "gate": True,
    }


def _case_causality_chain5(rounds: int) -> dict:
    """Cold-cache causality check of the chain-of-five global history —
    the checking portion of ``bench_causality_check``'s largest (E7)
    configuration. Simulation stays outside the timed region: it is
    unchanged by the checker work and would only dilute the signal."""
    from repro.checker import check_causal
    from repro.checker.cache import invalidate
    from repro.workloads import WorkloadSpec, build_interconnected
    from repro.workloads.scenarios import run_until_quiescent

    spec = WorkloadSpec(processes=6, ops_per_process=24, write_ratio=0.5)
    result = build_interconnected(
        ["vector-causal"] * 5, spec, topology="chain", shared=False, seed=0
    )
    run_until_quiescent(result.sim, result.systems)
    history = result.global_history

    def once():
        invalidate()
        return check_causal(history)

    seconds, calibration, verdict = _best_of(once, rounds)
    return {
        "name": "causality_chain5_large",
        "seconds": seconds,
        "calibration_seconds": calibration,
        "ops": len(history),
        "ok": bool(verdict.ok),
        "gate": True,
    }


#: Simulated totals of the sim_propagate_3x8x40 run: events, intra- and
#: inter-system messages, application operations and the sha256 of
#: ``dumps_history`` of the whole recorded history. A hot-path change
#: that moves one event fails the gated case.
SIM_PROPAGATE_TOTALS = dict(
    events=21_678,
    intra_messages=18_216,
    inter_messages=1_518,
    operations=960,
    history_sha256="8d36244e4cefe6d1c8bd64d2d21388d4743de7430d1f2626a2249e3229da37dc",
)


def _case_sim_propagate(rounds: int) -> dict:
    """Build and run three vector-causal systems of 8 x 40 ops (write
    ratio 0.8) in a star to quiescence: kernel, channels, protocol and IS
    bridge, no checker. The verdict is the n+m-1 messages-per-write
    closed form of §6 and the totals pinned in
    :data:`SIM_PROPAGATE_TOTALS`."""
    import hashlib

    from repro.trace import dumps_history
    from repro.workloads import WorkloadSpec, build_interconnected
    from repro.workloads.scenarios import run_until_quiescent

    def once():
        result = build_interconnected(
            ["vector-causal"] * 3, WorkloadSpec(8, 40, write_ratio=0.8), seed=0
        )
        run_until_quiescent(result.sim, result.systems)
        return result

    seconds, calibration, result = _best_of(once, rounds)
    connection = result.interconnection
    writes = sum(1 for op in result.global_history if op.is_write)
    intra, inter = connection.intra_system_messages, connection.inter_system_messages
    closed_form = connection.total_app_mcs + len(result.systems) - 1
    events = result.sim.events_processed
    totals = dict(
        events=events,
        intra_messages=intra,
        inter_messages=inter,
        operations=len(result.global_history),
        history_sha256=hashlib.sha256(
            dumps_history(result.recorder.history()).encode("utf-8")
        ).hexdigest(),
    )
    return {
        "name": "sim_propagate_3x8x40",
        "seconds": seconds,
        "calibration_seconds": calibration,
        "messages": intra + inter,
        "events_per_s": events / seconds,
        "messages_per_s": (intra + inter) / seconds,
        "ok": intra + inter == closed_form * writes and totals == SIM_PROPAGATE_TOTALS,
        "gate": True,
        **totals,
    }


def _explore_summary(outcome) -> dict:
    return {
        "explored": outcome.explored,
        "pruned_fingerprint": outcome.pruned_fingerprint,
        "pruned_sleep": outcome.pruned_sleep,
        "truncated": outcome.truncated,
        "runs": outcome.runs,
        "exhausted": outcome.exhausted,
        "distinct_histories": outcome.distinct_histories,
        "violations": [sorted(set(c.patterns)) for c in outcome.violations],
    }


#: bridge-p1 totals of a sequential search at a 500-run budget, as they
#: were before the decision-point fast path; the gated case must match.
P1_500_TOTALS = dict(explored=99, pruned_fingerprint=209, pruned_sleep=192, distinct_histories=6)


def _case_explore_p1(rounds: int) -> dict:
    """Sequential exploration of bridge-p1 at a 500-run budget: scenario
    rebuilds, policy steps, fingerprints and verdicts. The totals are
    pinned to :data:`P1_500_TOTALS`."""
    from repro.explore import explore

    def once():
        return explore("bridge-p1", max_interleavings=500, stop_after=None)

    seconds, calibration, outcome = _best_of(once, rounds)
    summary = _explore_summary(outcome)
    return {
        "name": "explore_bridge-p1_500",
        "seconds": seconds,
        "calibration_seconds": calibration,
        "runs_per_second": outcome.runs / seconds,
        "ok": all(summary[key] == value for key, value in P1_500_TOTALS.items()),
        "gate": True,
        **summary,
    }


def _case_explorer(scenario: str, jobs_list: tuple[int, ...]) -> tuple[list[dict], list[str]]:
    """Sequential + parallel exhaustion of *scenario*; certifies parity.

    A case can last a minute, over which the host's speed drifts, so it
    is calibrated just before and just after, and normalized by the mean
    of the two.
    """
    from repro.explore import explore

    cases: list[dict] = []
    failures: list[str] = []
    outcomes: dict[int, object] = {}
    for jobs in jobs_list:
        before = calibrate()
        started = time.perf_counter()
        outcome = explore(
            scenario, jobs=jobs, max_interleavings=400_000, stop_after=None
        )
        seconds = time.perf_counter() - started
        after = calibrate()
        outcomes[jobs] = outcome
        cases.append(
            {
                "name": f"explore_{scenario}_jobs{jobs}",
                "seconds": seconds,
                "calibration_seconds": (before + after) / 2,
                "calibration_before_seconds": before,
                "calibration_after_seconds": after,
                "runs_per_second": outcome.runs / seconds if seconds > 0 else 0.0,
                "jobs": jobs,
                "ok": outcome.exhausted,
                "gate": False,
                **_explore_summary(outcome),
            }
        )
    sequential = outcomes.get(1)
    for jobs, outcome in outcomes.items():
        if jobs == 1 or sequential is None:
            continue
        if (
            outcome.exhausted != sequential.exhausted
            or outcome.terminal_histories != sequential.terminal_histories
            or [sorted(set(c.patterns)) for c in outcome.violations]
            != [sorted(set(c.patterns)) for c in sequential.violations]
        ):
            failures.append(
                f"parallel explorer (jobs={jobs}) disagrees with sequential "
                f"on {scenario!r}: "
                f"{_explore_summary(outcome)} vs {_explore_summary(sequential)}"
            )
    return cases, failures


#: The repo root (``src/repro/obs/perf.py`` -> ``.``).
_REPO_ROOT = Path(__file__).resolve().parents[3]


def default_baseline_path() -> Path:
    return _REPO_ROOT / "benchmarks" / BASELINE_NAME


def default_report_path() -> Path:
    return _REPO_ROOT / PERF_REPORT


def run_perf_suite(
    quick: bool = False,
    report_path: Optional[Path] = None,
    baseline_path: Optional[Path] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> tuple[dict, list[str], Path]:
    """Run the suite; returns (report, failures, report path).

    *quick* runs the small explorer scenario only — the shape CI runs
    on every push. Full mode adds the bridge-p1 sequential-vs-parallel
    wall-clock comparison (several minutes). Gated cases are best-of-
    :data:`GATE_ROUNDS` in both modes, as in the baseline: a single
    round of a millisecond-scale case is too noisy to gate on.

    Failures (a non-empty second element) are gate violations or
    parallel-parity breaks; the report is written either way.
    """
    def note(label: str) -> None:
        if progress is not None:
            progress(label)

    cases: list[dict] = []
    failures: list[str] = []
    for runner, label in (
        (_case_checker_causal, "checker_causal_320"),
        (
            functools.partial(_case_checker_causal, ops_per_process=400),
            "checker_causal_3200",
        ),
        (_case_checker_sessions, "checker_sessions_320"),
        (_case_causality_chain5, "causality_chain5_large"),
        (_case_sim_propagate, "sim_propagate_3x8x40"),
        (_case_explore_p1, "explore_bridge-p1_500"),
    ):
        note(label)
        case = runner(GATE_ROUNDS)
        cases.append(case)
        if not case["ok"]:
            failures.append(f"perf case {case['name']} returned a failing verdict")
    note("explore_bridge-noread-control")
    explorer_cases, explorer_failures = _case_explorer(
        "bridge-noread-control", (1, 2)
    )
    cases.extend(explorer_cases)
    failures.extend(explorer_failures)
    if not quick:
        note("explore_bridge-p1 (sequential vs --jobs 4; this takes minutes)")
        p1_cases, p1_failures = _case_explorer("bridge-p1", (1, 4))
        cases.extend(p1_cases)
        failures.extend(p1_failures)

    baseline_path = baseline_path or default_baseline_path()
    baseline: Optional[dict] = None
    if baseline_path.exists():
        baseline = json.loads(baseline_path.read_text(encoding="utf-8"))

    speedups: dict[str, float] = {}
    if baseline is not None:
        for case in cases:
            name = case["name"]
            base_calibration = baseline.get("calibration") or case["calibration_seconds"]
            normalized = case["seconds"] * base_calibration / case["calibration_seconds"]
            case["normalized_seconds"] = normalized
            base_case = baseline.get("cases", {}).get(name)
            if case.get("gate") and base_case is not None:
                budget = base_case["seconds"] * GATE_TOLERANCE
                case["baseline_seconds"] = base_case["seconds"]
                case["gate_budget_seconds"] = budget
                if normalized > budget:
                    failures.append(
                        f"perf regression: {name} took {normalized:.4f}s "
                        f"(calibration-normalized) vs baseline "
                        f"{base_case['seconds']:.4f}s "
                        f"(+{GATE_TOLERANCE - 1:.0%} budget {budget:.4f}s)"
                    )
            pre = baseline.get("pre_optimization", {}).get(name)
            if pre is not None and normalized > 0:
                speedups[name] = round(pre / normalized, 2)

    report = {
        "suite": "repro-perf",
        "mode": "quick" if quick else "full",
        "python": platform.python_version(),
        "calibration_seconds": statistics.median(
            case["calibration_seconds"] for case in cases
        ),
        "gate_tolerance": GATE_TOLERANCE,
        "baseline": str(baseline_path) if baseline is not None else None,
        "cases": cases,
        "speedup_vs_pre_optimization": speedups,
        "failures": failures,
        "ok": not failures,
    }
    report_path = report_path or default_report_path()
    report_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return report, failures, report_path


def render_perf(report: dict) -> str:
    """A terminal table of the perf-suite outcome."""
    lines = [
        f"perf suite ({report['mode']}, calibration "
        f"{report['calibration_seconds']:.4f}s)"
    ]
    width = max(len(case["name"]) for case in report["cases"])
    for case in report["cases"]:
        extras = []
        if "runs_per_second" in case:
            extras.append(f"{case['runs_per_second']:.0f} runs/s")
        if "messages_per_s" in case:
            extras.append(f"{case['messages_per_s']:.0f} msgs/s")
        if case["name"] in report["speedup_vs_pre_optimization"]:
            extras.append(
                f"{report['speedup_vs_pre_optimization'][case['name']]}x "
                "vs pre-optimization"
            )
        status = "ok" if case.get("ok") else "FAIL"
        lines.append(
            f"  {case['name']:<{width}}  {status:<4} {case['seconds']:>9.4f}s"
            + ("  " + ", ".join(extras) if extras else "")
        )
    for failure in report["failures"]:
        lines.append(f"  GATE: {failure}")
    return "\n".join(lines)


__all__ = [
    "GATE_TOLERANCE",
    "PERF_REPORT",
    "calibrate",
    "default_baseline_path",
    "default_report_path",
    "render_perf",
    "run_perf_suite",
]
