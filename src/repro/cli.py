"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``protocols`` — list the registered MCS protocols and their metadata.
* ``run`` — build systems, interconnect, run a random workload, check
  consistency, optionally save the trace and print a diagram.
* ``check`` — re-check a saved trace against any consistency model.
* ``prove`` — run Theorem 1's proof construction (Definition 7 +
  Lemmas 7-9) on a saved trace, per process.
* ``lattice`` — exhaustively verify the consistency lattice on a small
  universe of histories.
* ``experiments`` — regenerate the full EXPERIMENTS.md report, checking
  every paper claim its tables show; exit 1 if one fails.
* ``faults`` — run a named fault-injection campaign (lossy links, flapping
  partitions, IS-process crash/recovery) and machine-check the outcome.
* ``explore`` — systematically enumerate event interleavings of a small
  scenario, with partial-order reduction, shrinking of failing schedules
  to minimal replayable JSON counterexamples, and ``--replay``.
* ``trace`` — record a run as a structured event stream (JSONL), convert
  it to a Chrome ``trace_event`` file for chrome://tracing / Perfetto,
  or summarize it.
* ``stats`` — run a deterministic interconnected workload with the
  metrics registry attached and compare the measured message counts
  against the §6 closed-form model.
* ``bench`` — run the checker/simulation/explorer perf suite and its
  regression gate, and write ``BENCH_perf.json``.
* ``demo`` — a 30-second tour: Theorem 1, the §3 ablation, Lemma 1.

``-v``/``-q`` (before the subcommand) raise or silence the module
loggers: ``repro -v explore ...`` shows exploration progress at INFO,
``-vv`` at DEBUG; by default nothing is logged.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Optional, Sequence

from repro import trace as trace_mod
from repro.checker import (
    check_all_session_guarantees,
    check_cache,
    check_causal,
    check_causal_by_views,
    check_causal_convergence,
    check_pram,
    check_sequential,
)
from repro.errors import ClaimError
from repro.protocols import available, get
from repro.viz import render_report
from repro.workloads import WorkloadSpec, build_interconnected
from repro.workloads.scenarios import run_until_quiescent

CHECKERS = {
    "causal": check_causal,
    "causal-views": check_causal_by_views,
    "causal-convergence": check_causal_convergence,
    "sequential": check_sequential,
    "pram": check_pram,
    "cache": check_cache,
}


def configure_logging(verbosity: int) -> None:
    """Map ``-v``/``-q`` counts onto the ``repro`` logger hierarchy.

    0 (default) keeps the library silent (WARNING), 1 shows progress
    (INFO), 2+ shows internals (DEBUG); negative values silence even
    warnings.
    """
    if verbosity >= 2:
        level = logging.DEBUG
    elif verbosity == 1:
        level = logging.INFO
    elif verbosity == 0:
        level = logging.WARNING
    else:
        level = logging.ERROR
    logging.basicConfig(
        stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    logging.getLogger("repro").setLevel(level)


def _command_protocols(args: argparse.Namespace) -> int:
    print(f"{'name':<26} {'consistency':<12} {'causal updating':<16}")
    print("-" * 56)
    for name in available():
        spec = get(name)
        print(
            f"{spec.name:<26} {spec.consistency:<12} "
            f"{'yes' if spec.causal_updating else 'NO':<16}"
        )
    return 0


def _command_run(args: argparse.Namespace) -> int:
    protocols = args.protocols.split(",")
    for name in protocols:
        get(name)  # fail fast on typos
    spec = WorkloadSpec(
        processes=args.processes,
        ops_per_process=args.ops,
        write_ratio=args.write_ratio,
    )
    result = build_interconnected(
        protocols,
        spec,
        topology=args.topology,
        shared=not args.per_edge,
        seed=args.seed,
    )
    run_until_quiescent(result.sim, result.systems)
    history = result.global_history
    print(
        f"ran {len(protocols)} system(s), {len(result.history)} operations "
        f"({len(history)} application-level), finished at t={result.sim.now:.1f}"
    )
    if result.interconnection and result.interconnection.bridges:
        print(f"inter-system pairs: {result.interconnection.inter_system_messages}")

    exit_code = 0
    for model in args.check.split(","):
        checker = CHECKERS.get(model)
        if checker is None:
            print(f"unknown model {model!r}; known: {', '.join(sorted(CHECKERS))}")
            return 2
        verdict = checker(history)
        print(verdict.summary())
        if not verdict.ok:
            exit_code = 1
    if args.trace:
        trace_mod.dump_history(result.recorder.history(), args.trace)
        print(f"trace written to {args.trace}")
    if args.diagram:
        print()
        print(render_report(history))
    return exit_code


def _command_check(args: argparse.Namespace) -> int:
    full = trace_mod.load_history(args.trace)
    print(f"loaded {len(full)} operations from {args.trace}")
    exit_code = 0
    if args.model == "sessions":
        for name, verdict in check_all_session_guarantees(full.without_interconnect()).items():
            print(verdict.summary())
            if not verdict.ok:
                exit_code = 1
        return exit_code
    checker = CHECKERS.get(args.model)
    if checker is None:
        print(f"unknown model {args.model!r}")
        return 2
    if args.include_interconnect:
        # The full trace writes each propagated value twice (original plus
        # IS-process propagation), so IS operations are only meaningful in
        # the paper's per-system computations alpha^k — check each one.
        for system in sorted({op.system for op in full}):
            verdict = checker(full.for_system(system))
            print(f"{system}: {verdict.summary()}")
            if not verdict.ok:
                exit_code = 1
        return exit_code
    history = full.without_interconnect()
    verdict = checker(history)
    print(verdict.summary())
    if args.diagram:
        print()
        print(render_report(history))
    return 0 if verdict.ok else 1


def _command_prove(args: argparse.Namespace) -> int:
    from repro.checker.theorem1 import verify_theorem1_construction
    from repro.errors import CheckerError

    full = trace_mod.load_history(args.trace)
    if args.proc:
        procs = [args.proc]
    else:
        procs = sorted(
            {op.proc for op in full if not op.is_interconnect}
        )
    exit_code = 0
    for proc in procs:
        try:
            view = verify_theorem1_construction(full, proc)
        except CheckerError as exc:
            print(f"{proc}: FAILED — {exc}")
            exit_code = 1
            continue
        print(
            f"{proc}: gamma^T built from beta^k ({len(view)} operations) — "
            "permutation, legality and causal-order preservation verified"
        )
    return exit_code


def _command_lattice(args: argparse.Namespace) -> int:
    from repro.lattice import run_census

    variables = tuple(args.variables.split(","))
    census = run_census(args.max_ops, variables=variables)
    print(
        f"enumerated {census.total} well-formed histories "
        f"(<= {args.max_ops} ops, 2 processes, variables {variables})"
    )
    for label in sorted(census.counts):
        print(f"  {label:<32} {census.counts[label]}")
    if census.broken_laws:
        print(f"\nBROKEN LAWS ({len(census.broken_laws)}):")
        for law in census.broken_laws[:5]:
            print(law)
        return 1
    print("all universal laws hold (inclusions, checker agreement, sessions)")
    return 0


def _command_experiments(args: argparse.Namespace) -> int:
    from repro.reporting import generate_report  # heavy import, keep lazy

    try:
        report = generate_report(
            progress=lambda title: print(f"running {title} ...", file=sys.stderr, flush=True)
        )
    except ClaimError as error:
        print(f"claim FAILED in {error}")
        return 1
    if args.output == "-":
        print(report)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report)
        print(f"wrote {args.output}")
    return 0


def _command_faults(args: argparse.Namespace) -> int:
    from repro.resilience.campaign import SCENARIOS, run_campaign

    if args.list:
        width = max(len(name) for name in SCENARIOS)
        for name in sorted(SCENARIOS):
            print(f"{name:<{width}}  {SCENARIOS[name].description}")
        return 0
    names = sorted(SCENARIOS) if args.scenario == "all" else [args.scenario]
    exit_code = 0
    for name in names:
        result = run_campaign(
            name,
            protocols=args.protocols.split(","),
            seed=args.seed,
            check_theorem1=not args.no_theorem1,
        )
        print(result.summary())
        if not result.ok:
            exit_code = 1
    return exit_code


def _command_explore(args: argparse.Namespace) -> int:
    from repro.errors import ExplorationError
    from repro.explore import (
        SCENARIOS,
        Schedule,
        explore,
        get_scenario,
        replay_schedule,
        save_schedule,
        shrink_counterexample,
    )

    if args.list:
        width = max(len(name) for name in SCENARIOS)
        for name in sorted(SCENARIOS):
            entry = SCENARIOS[name]
            marker = "violating" if entry.expect_violation else "clean"
            print(f"{name:<{width}}  [{marker}] {entry.description}")
        return 0

    if args.replay:
        try:
            verdict = replay_schedule(args.replay, check_theorem1=args.theorem1)
        except ExplorationError as exc:
            print(f"replay FAILED: {exc}")
            return 1
        if verdict.ok:
            print(f"replayed {args.replay}: clean run, as recorded")
        else:
            patterns = sorted({v.pattern for v in verdict.violations})
            print(
                f"replayed {args.replay}: reproduces {', '.join(patterns)} "
                "as recorded"
            )
            print(f"  {verdict.violations[0]}")
        return 0

    entry = get_scenario(args.scenario)
    result = explore(
        args.scenario,
        jobs=args.jobs,
        max_interleavings=args.max_interleavings,
        max_decisions=args.max_decisions,
        check_theorem1=args.theorem1,
        stop_after=None if args.keep_going else args.stop_after,
    )
    print(result.summary())
    if not result.exhausted:
        print(
            "  (search was budget-capped; raise --max-interleavings/"
            "--max-decisions for an exhaustive verdict)"
        )
    for index, counterexample in enumerate(result.violations):
        shrunk = counterexample
        if not args.no_shrink:
            shrunk = shrink_counterexample(counterexample)
        print(
            f"  violation {index}: {', '.join(sorted(set(shrunk.patterns)))} "
            f"in {shrunk.decisions} decisions"
            + (
                f" (shrunk from {shrunk.shrunk_from})"
                if shrunk.shrunk_from is not None
                else ""
            )
        )
        print(f"    trace: {shrunk.trace}")
        print(f"    {shrunk.detail}")
        if args.save and index == 0:
            path = save_schedule(
                Schedule.from_counterexample(
                    shrunk, note=f"found by `repro explore --scenario {args.scenario}`"
                ),
                args.save,
            )
            print(f"    schedule written to {path}")
    if entry.expect_violation:
        if result.violations:
            return 0
        print(
            f"  EXPECTED a violation in {args.scenario!r} but none was found"
        )
        return 1
    if result.violations:
        return 1
    if args.require_exhaustive and not result.exhausted:
        print(
            f"  REQUIRED an exhaustive search of {args.scenario!r} but the "
            "budget was hit first"
        )
        return 1
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    from repro.obs import JsonlSink, Tracer, read_jsonl, summarize
    from repro.obs.chrome import write_chrome

    if args.input is None and args.out is None:
        print("nothing to do: give an event file to load, or --out to record one")
        return 2

    if args.input is not None:
        events = read_jsonl(args.input)
        print(f"loaded {len(events)} events from {args.input}")
    else:
        for name in args.protocols.split(","):
            get(name)  # fail fast on typos
        sink = JsonlSink(args.out)
        tracer = Tracer(sink)
        spec = WorkloadSpec(
            processes=args.processes,
            ops_per_process=args.ops,
            write_ratio=args.write_ratio,
        )
        result = build_interconnected(
            args.protocols.split(","),
            spec,
            topology=args.topology,
            seed=args.seed,
            tracer=tracer,
        )
        run_until_quiescent(result.sim, result.systems)
        tracer.close()
        print(
            f"recorded {sink.written} events to {args.out} "
            f"(virtual time 0..{result.sim.now:.1f})"
        )
        events = read_jsonl(args.out)

    if args.to_chrome:
        records = write_chrome(events, args.to_chrome)
        print(
            f"wrote {records} Chrome trace records to {args.to_chrome} "
            "(load in chrome://tracing or https://ui.perfetto.dev)"
        )
    if args.summarize:
        print()
        print(summarize(events).render())
    return 0


def _command_stats(args: argparse.Namespace) -> int:
    from repro.analysis.model import (
        flat_messages_per_write,
        interconnected_messages_per_write,
    )
    from repro.obs import MetricsRegistry, TrafficMeter

    protocols = args.protocols.split(",")
    for name in protocols:
        get(name)
    registry = MetricsRegistry()
    spec = WorkloadSpec(
        processes=args.processes,
        ops_per_process=args.ops,
        write_ratio=args.write_ratio,
    )
    result = build_interconnected(
        protocols,
        spec,
        topology=args.topology,
        shared=not args.per_edge,
        seed=args.seed,
        metrics=registry,
    )
    meter = TrafficMeter().attach(*(system.network for system in result.systems))
    run_until_quiescent(result.sim, result.systems)

    writes = sum(1 for op in result.global_history if op.is_write)
    if result.interconnection is not None:
        intra = result.interconnection.intra_system_messages
        inter = result.interconnection.inter_system_messages
        total_mcs = result.interconnection.total_app_mcs
        predicted = interconnected_messages_per_write(
            total_mcs, len(result.systems), shared=not args.per_edge
        )
    else:
        intra = sum(system.network.messages_sent for system in result.systems)
        inter = 0
        total_mcs = sum(len(system.mcs_processes) for system in result.systems)
        predicted = flat_messages_per_write(total_mcs)

    print(f"ran {len(protocols)} system(s): {writes} writes, "
          f"{intra} intra-system + {inter} inter-system messages")
    print()
    print("metrics registry:")
    print(registry.render())
    print()

    exit_code = 0

    def check(label: str, observed, expected) -> None:
        nonlocal exit_code
        ok = observed == expected
        mark = "ok" if ok else "MISMATCH"
        print(f"  {label:<46} observed={observed:<8g} expected={expected:<8g} {mark}")
        if not ok:
            exit_code = 1

    print("registry vs ground truth (simulator counters):")
    check("net_messages_total == intra-system sends", registry.total("net_messages_total"), intra)
    check("TrafficMeter.total == intra-system sends", meter.total, intra)
    if result.interconnection is not None:
        check(
            "is_pairs_sent_total == inter-system pairs",
            registry.total("is_pairs_sent_total"),
            inter,
        )
    check(
        "ops_completed_total == application operations",
        registry.total("ops_completed_total"),
        len(result.global_history),
    )

    print()
    print(f"§6 model (n={total_mcs} app MCS-processes, m={len(protocols)} systems):")
    if writes:
        observed_per_write = (intra + inter) / writes
        model_holds = all(name == "vector-causal" for name in protocols)
        ok = abs(observed_per_write - predicted) < 1e-9
        mark = "ok" if ok else ("MISMATCH" if model_holds else "(model assumes vector-causal)")
        print(
            f"  messages per write: observed {observed_per_write:g}, "
            f"predicted {predicted} {mark}"
        )
        if model_holds and not ok:
            exit_code = 1
    return exit_code


def _command_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.perf import render_perf, run_perf_suite

    report, failures, perf_path = run_perf_suite(
        quick=args.quick,
        report_path=Path(args.output) if args.output else None,
        progress=lambda name: print(f"perf: {name} ...", file=sys.stderr, flush=True),
    )
    print(render_perf(report))
    print(f"\nperf report written to {perf_path}")
    return 1 if failures else 0


def _command_demo(args: argparse.Namespace) -> int:
    from repro.experiments import lemma1_violation_rate, section3_violation_rate

    print("1. Theorem 1: two causal systems, bridged, random workload")
    result = build_interconnected(
        ["vector-causal", "parametrized-causal"],
        WorkloadSpec(processes=3, ops_per_process=6),
        seed=args.seed,
    )
    run_until_quiescent(result.sim, result.systems)
    verdict = check_causal(result.global_history)
    print(f"   {verdict.summary()}")

    print("2. §3 ablation: violation rate without the IS read step")
    print(f"   with read: {section3_violation_rate(True, range(5)):.0%}   "
          f"without: {section3_violation_rate(False, range(5)):.0%}")

    print("3. Lemma 1: IS-protocol 1 vs 2 on a non-causal-updating protocol")
    print(f"   protocol 1: {lemma1_violation_rate(False, range(10)):.0%} violations   "
          f"protocol 2: {lemma1_violation_rate(True, range(10)):.0%}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'On the interconnection of causal memory systems'",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="show library log output (-v progress, -vv internals)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="count",
        default=0,
        help="silence library warnings too",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("protocols", help="list registered MCS protocols")

    run_parser = commands.add_parser("run", help="run an interconnected workload")
    run_parser.add_argument(
        "--protocols",
        default="vector-causal,vector-causal",
        help="comma-separated protocol names, one per system",
    )
    run_parser.add_argument("--topology", choices=("star", "chain"), default="star")
    run_parser.add_argument("--per-edge", action="store_true", help="per-edge IS-processes")
    run_parser.add_argument("--processes", type=int, default=3)
    run_parser.add_argument("--ops", type=int, default=6)
    run_parser.add_argument("--write-ratio", type=float, default=0.5)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--check", default="causal", help="comma-separated models to check"
    )
    run_parser.add_argument("--trace", help="write the full trace to this JSON file")
    run_parser.add_argument("--diagram", action="store_true", help="print a space-time diagram")

    check_parser = commands.add_parser("check", help="check a saved trace")
    check_parser.add_argument("trace", help="path to a trace JSON file")
    check_parser.add_argument(
        "--model",
        default="causal",
        choices=(*sorted(CHECKERS), "sessions"),
    )
    check_parser.add_argument(
        "--include-interconnect",
        action="store_true",
        help="keep IS-process operations (check alpha^k rather than alpha^T)",
    )
    check_parser.add_argument("--diagram", action="store_true")

    prove_parser = commands.add_parser(
        "prove", help="run Theorem 1's proof construction on a saved trace"
    )
    prove_parser.add_argument("trace", help="path to a trace JSON file (IS ops included)")
    prove_parser.add_argument("--proc", help="only this application process")

    lattice_parser = commands.add_parser(
        "lattice", help="exhaustively verify the consistency lattice"
    )
    lattice_parser.add_argument("--max-ops", type=int, default=4)
    lattice_parser.add_argument("--variables", default="x")

    experiments_parser = commands.add_parser(
        "experiments", help="regenerate the EXPERIMENTS.md report"
    )
    experiments_parser.add_argument("--output", default="EXPERIMENTS.md")

    faults_parser = commands.add_parser(
        "faults", help="run a fault-injection campaign against the resilient IS-link"
    )
    faults_parser.add_argument(
        "--scenario",
        default="combined",
        help="scenario name, or 'all' (see --list)",
    )
    faults_parser.add_argument(
        "--protocols",
        default="vector-causal,vector-causal",
        help="comma-separated protocol names for the two systems",
    )
    faults_parser.add_argument("--seed", type=int, default=0)
    faults_parser.add_argument(
        "--no-theorem1",
        action="store_true",
        help="skip the (slower) Theorem 1 proof construction check",
    )
    faults_parser.add_argument(
        "--list", action="store_true", help="list the scenario catalogue and exit"
    )

    explore_parser = commands.add_parser(
        "explore",
        help="systematically explore event interleavings of a small scenario",
    )
    explore_parser.add_argument(
        "--scenario",
        default="bridge-p1",
        help="scenario name from the exploration catalogue (see --list)",
    )
    explore_parser.add_argument(
        "--list", action="store_true", help="list the scenario catalogue and exit"
    )
    explore_parser.add_argument(
        "--replay",
        metavar="SCHEDULE.json",
        help="replay a saved counterexample schedule instead of exploring",
    )
    explore_parser.add_argument(
        "--max-interleavings",
        type=int,
        default=200_000,
        help=(
            "total run budget, complete and pruned (default 200000 — "
            "enough to exhaust the catalogued bridge scenarios)"
        ),
    )
    explore_parser.add_argument(
        "--max-decisions",
        type=int,
        default=128,
        help="per-run cap on scheduling decisions beyond the replayed prefix",
    )
    explore_parser.add_argument(
        "--theorem1",
        action="store_true",
        help="also run the Theorem 1 proof construction on clean interleavings",
    )
    explore_parser.add_argument(
        "--stop-after",
        type=int,
        default=1,
        help="stop after this many violating schedules (default 1)",
    )
    explore_parser.add_argument(
        "--keep-going",
        action="store_true",
        help="search the whole budget even after finding violations",
    )
    explore_parser.add_argument(
        "--require-exhaustive",
        action="store_true",
        help="fail (exit 1) unless the whole interleaving space was searched",
    )
    explore_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "worker processes for the search (default 1: the classic "
            "sequential engine, bit-for-bit reproducible; N>=2 partitions "
            "the tree into subtree work-units with results independent of N)"
        ),
    )
    explore_parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="report raw counterexample traces without delta-debugging",
    )
    explore_parser.add_argument(
        "--save",
        metavar="SCHEDULE.json",
        help="write the first (shrunk) counterexample as a replayable schedule",
    )

    trace_parser = commands.add_parser(
        "trace",
        help="record a structured event trace, convert it to Chrome format, or summarize it",
    )
    trace_parser.add_argument(
        "input",
        nargs="?",
        help="an existing event JSONL file to convert/summarize (omit to record a new run)",
    )
    trace_parser.add_argument(
        "--out", help="record a run and write its event stream to this JSONL file"
    )
    trace_parser.add_argument(
        "--to-chrome",
        metavar="CHROME.json",
        help="also write a Chrome trace_event file (chrome://tracing, Perfetto)",
    )
    trace_parser.add_argument(
        "--summarize", action="store_true", help="print an aggregate summary of the events"
    )
    trace_parser.add_argument(
        "--protocols",
        default="vector-causal,vector-causal",
        help="comma-separated protocol names, one per system (recording only)",
    )
    trace_parser.add_argument("--topology", choices=("star", "chain"), default="star")
    trace_parser.add_argument("--processes", type=int, default=2)
    trace_parser.add_argument("--ops", type=int, default=4)
    trace_parser.add_argument("--write-ratio", type=float, default=0.5)
    trace_parser.add_argument("--seed", type=int, default=0)

    stats_parser = commands.add_parser(
        "stats",
        help="run an instrumented workload and compare message counts to the §6 model",
    )
    stats_parser.add_argument(
        "--protocols",
        default="vector-causal,vector-causal",
        help="comma-separated protocol names, one per system",
    )
    stats_parser.add_argument("--topology", choices=("star", "chain"), default="star")
    stats_parser.add_argument("--per-edge", action="store_true", help="per-edge IS-processes")
    stats_parser.add_argument("--processes", type=int, default=2)
    stats_parser.add_argument("--ops", type=int, default=5)
    stats_parser.add_argument("--write-ratio", type=float, default=0.5)
    stats_parser.add_argument("--seed", type=int, default=0)

    bench_parser = commands.add_parser(
        "bench",
        help="run the perf suite and its regression gate; write BENCH_perf.json",
    )
    bench_parser.add_argument(
        "--quick",
        action="store_true",
        help="smoke mode: the small explorer scenario only (the gate still applies)",
    )
    bench_parser.add_argument(
        "--output", help="report path (default: BENCH_perf.json in the repo root)"
    )

    demo_parser = commands.add_parser("demo", help="a quick tour of the reproduction")
    demo_parser.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(args.verbose - args.quiet)
    handlers = {
        "protocols": _command_protocols,
        "run": _command_run,
        "check": _command_check,
        "prove": _command_prove,
        "lattice": _command_lattice,
        "experiments": _command_experiments,
        "faults": _command_faults,
        "explore": _command_explore,
        "trace": _command_trace,
        "stats": _command_stats,
        "bench": _command_bench,
        "demo": _command_demo,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
