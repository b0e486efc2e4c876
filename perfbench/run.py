"""Repository benchmark: four workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bridge-check --seed 0 --seconds 20 --trace 0

Runs untraced iterations of the workload for ``--seconds`` (at least
three), checks every output, and prints one line per metric followed by
a JSON result line. ``--trace 0`` reports the end-to-end metrics listed
in BENCHMARK.json from the untraced iterations. ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics; the
spans of the traced iterations are written to
``.bench_out/spans-<workload>-seed<seed>.json``. Host times and rates
are scaled to a reference host speed measured by calibrate(). Workloads,
metrics and their rationale are described in NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = ROOT / ".bench_out"
MIN_ITERATIONS = 3
MIN_TRACED_PAIRS = 2
#: Host speed on a shared machine drifts by tens of percent over minutes,
#: so each iteration's host times are scaled to a reference speed, the
#: speed at which calibrate() takes this long, using the calibrate() run
#: just before the iteration.
REFERENCE_CALIBRATION_S = 0.18


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def calibrate() -> float:
    """Seconds a fixed interpreter-bound loop takes. It allocates nothing
    (peak RSS is unchanged) and uses no repository code (a change to the
    program cannot change it)."""
    started = time.perf_counter()
    accumulator = 0
    for i in range(1_500_000):
        accumulator = (accumulator * 31 + i) & 0xFFFFFFF
    return time.perf_counter() - started


def attempt(workload, seed: int, traced: bool, failed_iteration):
    """One iteration, preceded by the calibrate() run that scales its host
    times. An exception fails the iteration, not the run."""
    calibration_s = calibrate()
    try:
        iteration = workload.iterate(seed, traced)
    except Exception:  # noqa: BLE001 - counted as a failed output check
        traceback.print_exc(file=sys.stderr)
        iteration = failed_iteration(traceback.format_exc(limit=1).strip())
    iteration.calibration_s = calibration_s
    return iteration


def measure(workload, seed: int, seconds: float, traced: bool, failed_iteration):
    """Iterations for *seconds*: untraced, or alternately untraced and traced."""
    calibrate()  # warm-up: the first loop of a process runs slow
    plain, traced_runs = [], []
    floor = MIN_TRACED_PAIRS if traced else MIN_ITERATIONS
    started = time.perf_counter()
    while True:
        plain.append(attempt(workload, seed, False, failed_iteration))
        if traced:
            traced_runs.append(attempt(workload, seed, True, failed_iteration))
        if len(plain) >= floor and time.perf_counter() - started >= seconds:
            return plain, traced_runs


def scaled(value: float, unit: str, calibration_s: float) -> float:
    """*value* at the reference host speed: times shrink and rates grow
    when this host ran slower than the reference."""
    scale = REFERENCE_CALIBRATION_S / calibration_s
    if unit == "s":
        return value * scale
    if unit.endswith("/s"):
        return value / scale
    return value


def guard_determinism(iterations) -> None:
    """Simulated counts must be identical across iterations of one seed,
    traced or not; an iteration that differs fails."""
    reference = next((it.stats for it in iterations if it.stats), None)
    for iteration in iterations:
        if iteration.stats and iteration.stats != reference:
            diff = {
                key: (reference.get(key), iteration.stats.get(key))
                for key in sorted(set(reference) | set(iteration.stats))
                if reference.get(key) != iteration.stats.get(key)
            }
            iteration.failures.append(f"determinism: {diff}")


def peak_rss_mb(scope: str) -> float:
    who = resource.RUSAGE_CHILDREN if scope == "children" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(rss_scope: str, plain) -> tuple[dict, list]:
    guard_determinism(plain)
    completed = [it for it in plain if it.wall_s > 0]

    def median(per_iteration, unit):
        return statistics.median(
            scaled(per_iteration(it), unit, it.calibration_s) for it in completed)

    values = {
        "setup_s": median(lambda it: it.setup_s, "s"),
        "wall_s": median(lambda it: it.wall_s, "s"),
        "ops_per_s": median(lambda it: it.ops / it.wall_s, "/s"),
        "runs_per_s": median(lambda it: it.runs / it.wall_s, "/s"),
        "peak_rss_mb": peak_rss_mb(rss_scope),
        **completed[0].sim,
    }
    return values, plain


def per_layer(plain, traced_runs, units: dict[str, str]) -> tuple[dict, list]:
    checked = plain + traced_runs
    guard_determinism(checked)
    traced_ok = [it for it in traced_runs if it.layers]
    values = {
        name: statistics.median(
            scaled(it.layers.get(name, 0.0), unit, it.calibration_s) for it in traced_ok)
        for name, unit in units.items()
    }
    traced_wall = statistics.median(
        scaled(it.wall_s, "s", it.calibration_s) for it in traced_ok)
    plain_wall = statistics.median(
        scaled(it.wall_s, "s", it.calibration_s) for it in plain if it.wall_s > 0)
    values["obs.trace_overhead_ratio"] = traced_wall / plain_wall
    values["bench.iterations"] = float(len(checked))
    return values, checked


def write_spans(workload_name: str, seed: int, traced_runs) -> None:
    SPANS_DIR.mkdir(exist_ok=True)
    path = SPANS_DIR / f"spans-{workload_name}-seed{seed}.json"
    iterations = []
    for index, iteration in enumerate(traced_runs):
        origin = iteration.spans[0]["start"] if iteration.spans else 0.0
        iterations.append([
            {**span, "iteration": index, "start": span["start"] - origin,
             "end": span["end"] - origin}
            for span in iteration.spans
        ])
    path.write_text(json.dumps({"workload": workload_name, "seed": seed,
                                "iterations": iterations}, indent=1))


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmark: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, failed_iteration

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced = args.trace == 1

    plain, traced_runs = measure(workload, args.seed, args.seconds, traced, failed_iteration)
    if not any(it.wall_s > 0 for it in plain) or (traced and not any(
            it.layers for it in traced_runs)):
        print("benchmark: every iteration failed", file=sys.stderr)
        return 1
    if traced:
        declared = spec["per_layer"]
        values, checked = per_layer(
            plain, traced_runs, {metric["name"]: metric["unit"] for metric in declared})
        write_spans(workload.name, args.seed, traced_runs)
    else:
        declared = spec["end_to_end"]
        values, checked = end_to_end(workload.rss_scope, plain)
    failed = sum(1 for it in checked if it.failures)
    for iteration in checked:
        for failure in iteration.failures:
            print(f"FAILED: {failure}", file=sys.stderr)
    values["pass_ratio"] = (len(checked) - failed) / len(checked)

    calibration_s = statistics.median(it.calibration_s for it in checked)
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced_runs)} traced iterations; calibration median {calibration_s:.4f} s "
          f"(reference {REFERENCE_CALIBRATION_S} s)")
    metrics = {}
    for metric in declared:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:32s} {value:>16.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(checked),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
