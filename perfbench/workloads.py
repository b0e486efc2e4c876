"""The four benchmark workloads, driven through the library's public entry points.

Each workload exposes ``iterate(seed, traced)``, which builds the workload
(timed as set-up), runs it (timed as wall time), checks its outputs and
returns an :class:`Iteration`. Untraced iterations attach no instruments,
so the program runs its disabled fast path. Traced iterations attach a
``Tracer`` and a ``MetricsRegistry`` through the ``tracer=``/``metrics=``
arguments, activate ``repro.obs.profile.profiling()`` and record
benchmark-side spans around each call into a layer. The layer numbers
are derived from those three sources. See NOTES.md for the rationale.

Import this module only after ``src/`` is on ``sys.path`` (run.py does it).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.checker import check_causal
from repro.checker.cache import derive
from repro.explore.engine import explore
from repro.explore.scenarios import get_scenario
from repro.interconnect import interconnect
from repro.memory import DSMSystem, HistoryRecorder, Read, Write
from repro.obs.instruments import combine
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.profile import profiling
from repro.obs.tracer import Tracer, TraceSink
from repro.protocols import get as get_protocol
from repro.resilience.campaign import run_campaign
from repro.sim import Simulator
from repro.workloads.generator import WorkloadSpec
from repro.workloads.scenarios import build_interconnected, run_until_quiescent

HERE = Path(__file__).resolve().parent

#: Fixed explorer budget: runs_per_s stays comparable when pruning changes
#: how many runs exhaustion of bridge-p1 takes.
EXPLORE_BUDGET = 3000

#: faults-combined workload: the campaign's default shape, scaled up.
CAMPAIGN_SPEC = WorkloadSpec(
    processes=6, ops_per_process=40, write_ratio=0.6, max_think=6.0, max_stagger=25.0
)
CAMPAIGN_TIMEOUT_S = 120.0


@dataclass
class Iteration:
    """One build-and-run of a workload."""

    setup_s: float
    wall_s: float
    ops: int  #: application ops simulated and verified
    runs: int  #: simulation runs completed
    failures: list[str]
    #: Simulated counts that must repeat exactly for one (workload, seed).
    stats: dict[str, Any]
    #: Simulated statistics reported end to end (messages_per_write, ...).
    sim: dict[str, float]
    layers: dict[str, float] = field(default_factory=dict)
    spans: list[dict[str, Any]] = field(default_factory=list)
    #: Seconds of run.calibrate() just before this iteration.
    calibration_s: float = 0.0


def failed_iteration(error: str) -> Iteration:
    return Iteration(0.0, 0.0, 0, 0, [error], {}, {})


# ---------------------------------------------------------------- tracing


class Spans:
    """Benchmark-side spans kept in memory: name, start, end, parent index."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []
        self._open: list[int] = []

    @contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
        }
        self.records.append(record)
        self._open.append(len(self.records) - 1)
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def duration(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.records if r["name"] == name)

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span duration minus its direct children's.

        A span's layer is its name up to the first dot; the root span
        ``bench.iteration`` is the benchmark's own glue (unattributed).
        """
        child_time = [0.0] * len(self.records)
        for record in self.records:
            if record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        layers: dict[str, float] = {}
        for index, record in enumerate(self.records):
            layer = record["name"].split(".", 1)[0]
            own = record["end"] - record["start"] - child_time[index]
            layers[layer] = layers.get(layer, 0.0) + own
        return layers


def _no_span(name: str):
    return nullcontext()


class ApplySink(TraceSink):
    """Reduces the trace stream as it is emitted: counts events and keeps,
    per written value, the virtual times of its first and last
    ``replica.apply`` (values are unique per write)."""

    def __init__(self) -> None:
        self.events = 0
        self.applies: dict[tuple[Any, Any], list[float]] = {}

    def write(self, event) -> None:
        self.events += 1
        if event.kind == "replica.apply":
            key = (event.arg("var"), event.arg("value"))
            window = self.applies.get(key)
            if window is None:
                self.applies[key] = [event.ts, event.ts]
            else:
                window[1] = event.ts

    def visibility(self) -> dict[str, float]:
        latencies = sorted(last - first for first, last in self.applies.values())
        return {
            "interconnect.visibility_p50": nearest_rank(latencies, 0.50),
            "interconnect.visibility_p99": nearest_rank(latencies, 0.99),
        }


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def profile_totals(registry: MetricsRegistry, site: str) -> tuple[float, int]:
    """(seconds, calls) that ``@profiled(site)`` recorded into *registry*."""
    for instrument in registry:
        if (
            isinstance(instrument, Histogram)
            and instrument.name == "profile_seconds"
            and dict(instrument.labels).get("site") == site
        ):
            return instrument.sum, instrument.count
    return 0.0, 0


def history_digest(history) -> str:
    digest = hashlib.sha256()
    for op in history:
        digest.update(
            repr(
                (op.proc, op.kind.name, op.var, op.value, op.seq, op.system,
                 op.issue_time, op.response_time)
            ).encode()
        )
    return digest.hexdigest()[:16]


def _instruments(traced: bool):
    if not traced:
        return None, None, None, _no_span
    sink = ApplySink()
    return sink, Tracer(sink), MetricsRegistry(), Spans()


def _layers(spans: Spans, counts: dict[str, float], *, derive_s: float, check_s: float,
            checked_ops: int, kernel_s: float, nested_checker_s: float = 0.0) -> dict[str, float]:
    """Per-layer numbers of one traced iteration.

    *kernel_s* is the time the simulation kernel ran in; when the kernel
    and the checker run inside another layer's call (explore, run_campaign)
    it is that call's own time and *nested_checker_s* is moved from that
    layer's self time to the checker's.
    """
    self_times = spans.self_times()
    root = spans.records[0]
    if nested_checker_s:
        outer = spans.records[1]["name"].split(".", 1)[0]
        self_times[outer] -= nested_checker_s
        self_times["checker"] = self_times.get("checker", 0.0) + nested_checker_s
    checker_s = derive_s + check_s
    layers = {
        **counts,
        "checker.derive_s": derive_s,
        "checker.check_causal_s": check_s,
        "checker.ops_per_s": checked_ops / checker_s if checker_s > 0 else 0.0,
        "sim.events_per_s": counts["sim.events"] / kernel_s,
        "sim.network.messages_per_s": counts["sim.network.messages"] / kernel_s,
        "obs.unattributed_s": self_times.get("bench", 0.0),
        "obs.traced_wall_s": root["end"] - root["start"],
    }
    for layer in SELF_TIME_LAYERS:
        layers[f"{layer}.self_s"] = self_times.get(layer, 0.0)
    return layers


def _profiled_checker(registry: MetricsRegistry) -> tuple[float, float]:
    """(derivation, rest) of the check_causal calls made inside a layer:
    check_causal derives CO itself (derive, then the lazy closure)."""
    derive_s = (profile_totals(registry, "checker.derive")[0]
                + profile_totals(registry, "checker.transitive_closure")[0])
    causal_s = profile_totals(registry, "checker.check_causal")[0]
    return derive_s, max(causal_s - derive_s, 0.0)


SELF_TIME_LAYERS = ("sim", "memory", "checker", "explore", "resilience", "workloads")


# ---------------------------------------------------------------- workloads


class SimWorkload:
    """m vector-causal systems of 8 x 100 ops in a star with shared
    IS-processes (IS-protocol 1: the protocol is causal-updating), run to
    quiescence; optionally check_causal on the global history."""

    rss_scope = "self"

    def __init__(self, name: str, systems: int, write_ratio: float, check: bool) -> None:
        self.name = name
        self.systems = systems
        self.spec = WorkloadSpec(processes=8, ops_per_process=100, write_ratio=write_ratio)
        self.check = check

    def iterate(self, seed: int, traced: bool) -> Iteration:
        sink, tracer, registry, span = _instruments(traced)
        started = time.perf_counter()
        scenario = build_interconnected(
            ["vector-causal"] * self.systems, self.spec, seed=seed,
            tracer=tracer, metrics=registry,
        )
        built = time.perf_counter()
        verdict = None
        with span("bench.iteration"):
            with span("sim.run_until_quiescent"):
                run_until_quiescent(scenario.sim, scenario.systems)
            with span("memory.history"):
                history = scenario.recorder.history()
                global_history = history.without_interconnect()
            if self.check:
                if traced:
                    with span("checker.derive"):
                        derive(global_history).order  # builds the lazy CO closure
                with span("checker.check_causal"):
                    verdict = check_causal(global_history)
        finished = time.perf_counter()

        connection = scenario.interconnection
        writes = sum(1 for op in global_history if op.is_write)
        intra = connection.intra_system_messages
        inter = connection.inter_system_messages
        n, m = connection.total_app_mcs, len(scenario.systems)
        failures = []
        if verdict is not None and not verdict.ok:
            failures.append(f"causal check: {verdict.summary()}")
        if intra + inter != (n + m - 1) * writes:
            failures.append(
                f"messages: {intra}+{inter} for {writes} writes, "
                f"closed form n+m-1={n + m - 1} per write"
            )
        if inter != (m - 1) * writes:
            failures.append(f"IS messages: {inter} for {writes} writes, expected x{m - 1}")
        stats = {
            "events": scenario.sim.events_processed,
            "intra_messages": intra,
            "is_messages": inter,
            "writes": writes,
            "finish_time": scenario.sim.now,
            "history": history_digest(history),
        }
        sim = {
            "messages_per_write": (intra + inter) / writes,
            "sim_finish_time": scenario.sim.now,
        }
        iteration = Iteration(built - started, finished - built, len(global_history), 1,
                              failures, stats, sim)
        if traced:
            counts = {
                "sim.events": registry.total("sim_events_total"),
                "sim.network.messages": registry.total("channel_messages_total"),
                "interconnect.pairs": registry.total("is_pairs_sent_total"),
                "interconnect.crossings": float(inter),
                "obs.trace_events": float(sink.events),
                "memory.history_s": span.duration("memory.history"),
                "sim.run_s": span.duration("sim.run_until_quiescent"),
                **sink.visibility(),
            }
            iteration.layers = _layers(
                span, counts,
                derive_s=span.duration("checker.derive"),
                check_s=span.duration("checker.check_causal"),
                checked_ops=len(global_history) if self.check else 0,
                kernel_s=counts["sim.run_s"],
            )
            iteration.spans = span.records
        return iteration


class ExploreWorkload:
    """Sequential ``explore`` of the catalogued bridge-p1 scenario."""

    rss_scope = "self"
    name = "explore-p1"

    def iterate(self, seed: int, traced: bool) -> Iteration:
        span = Spans() if traced else _no_span
        registry = MetricsRegistry() if traced else None
        started = time.perf_counter()
        factory = functools.partial(get_scenario("bridge-p1").factory, seed=seed)
        reference = factory()
        run_until_quiescent(reference.sim, reference.systems)
        ops_per_run = len(reference.global_history)
        built = time.perf_counter()
        tally = _Tally(factory, span) if traced else factory
        with profiling(registry) if traced else nullcontext(), span("bench.iteration"):
            with span("explore.explore"):
                result = explore("bridge-p1", tally, max_interleavings=EXPLORE_BUDGET,
                                 stop_after=None)
        finished = time.perf_counter()

        failures = []
        if result.violations:
            failures.append(f"explore: {len(result.violations)} violating schedules")
        if result.runs != EXPLORE_BUDGET:
            failures.append(f"explore: {result.runs} runs, budget {EXPLORE_BUDGET}")
        stats = {
            "runs": result.runs,
            "explored": result.explored,
            "pruned_fingerprint": result.pruned_fingerprint,
            "pruned_sleep": result.pruned_sleep,
            "truncated": result.truncated,
            "max_decisions_seen": result.max_decisions_seen,
            "ops_per_run": ops_per_run,
        }
        sim, visibility = bridge_p1_timed(seed)
        checked_ops = result.explored * ops_per_run
        iteration = Iteration(built - started, finished - built, checked_ops, result.runs,
                              failures, stats, sim)
        if traced:
            fingerprint_s, fingerprint_calls = profile_totals(
                registry, "explore.state_fingerprint")
            derive_s, check_s = _profiled_checker(registry)
            verdict_s = derive_s + check_s
            rebuild_s = span.duration("workloads.build_scenario")
            other_s = span.duration("explore.explore") - fingerprint_s - verdict_s - rebuild_s
            counts = {
                **tally.flush(),
                "explore.runs": float(result.runs),
                "explore.explored": float(result.explored),
                "explore.pruned_fingerprint": float(result.pruned_fingerprint),
                "explore.pruned_sleep": float(result.pruned_sleep),
                "explore.useful_ratio": result.explored / result.runs,
                "explore.fingerprint_s": fingerprint_s,
                "explore.fingerprint_calls": float(fingerprint_calls),
                "explore.verdict_s": verdict_s,
                "explore.rebuild_s": rebuild_s,
                "explore.other_s": other_s,
                **visibility,
            }
            iteration.layers = _layers(
                span, counts, derive_s=derive_s, check_s=check_s, checked_ops=checked_ops,
                kernel_s=other_s, nested_checker_s=verdict_s,
            )
            iteration.spans = span.records
        return iteration


class _Tally:
    """Scenario factory that spans each rebuild and sums the plain counters
    of every scenario the explorer builds; runs are sequential, so a run is
    over when the next scenario is built."""

    def __init__(self, factory: Callable[[], Any], span: Spans) -> None:
        self.factory = factory
        self.span = span
        self.last = None
        self.totals = {"sim.events": 0.0, "sim.network.messages": 0.0,
                       "interconnect.pairs": 0.0, "interconnect.crossings": 0.0}

    def __call__(self):
        self.flush()
        with self.span("workloads.build_scenario"):
            self.last = self.factory()
        return self.last

    def flush(self) -> dict[str, float]:
        if self.last is not None:
            connection = self.last.interconnection
            self.totals["sim.events"] += self.last.sim.events_processed
            self.totals["sim.network.messages"] += (
                connection.intra_system_messages + connection.inter_system_messages)
            self.totals["interconnect.pairs"] += sum(
                bridge.pairs_a_to_b + bridge.pairs_b_to_a for bridge in connection.bridges)
            self.totals["interconnect.crossings"] += connection.inter_system_messages
            self.last = None
        return self.totals


def bridge_p1_timed(seed: int) -> tuple[dict[str, float], dict[str, float]]:
    """Simulated statistics of the bridge-p1 cast at unit delays.

    The catalogued scenario sets every delay to zero, so its virtual time
    never leaves 0. The same cast (2 systems x 2 processes, two racing
    writes to x, double readers, IS-protocol 1) with l = d = 1 gives
    explore-p1 nonzero, exactly repeating time statistics.
    """
    sink = ApplySink()
    sim = Simulator()
    sim.instruments = combine(Tracer(sink), None, None)
    recorder = HistoryRecorder()
    protocol = get_protocol("vector-causal")
    s0 = DSMSystem(sim, "S0", protocol, recorder=recorder, seed=seed, default_delay=1.0)
    s1 = DSMSystem(sim, "S1", protocol, recorder=recorder, seed=seed + 1, default_delay=1.0)
    s0.add_application("S0/p0", [Write("x", "a")])
    s0.add_application("S0/p1", [Read("x"), Read("x")])
    s1.add_application("S1/q0", [Write("x", "c")])
    s1.add_application("S1/q1", [Read("x"), Read("x")])
    connection = interconnect([s0, s1], topology="chain", delay=1.0,
                              use_pre_update=False, seed=seed)
    run_until_quiescent(sim, [s0, s1])
    writes = sum(1 for op in recorder.history() if op.is_write and not op.is_interconnect)
    messages = connection.intra_system_messages + connection.inter_system_messages
    return (
        {"messages_per_write": messages / writes, "sim_finish_time": sim.now},
        sink.visibility(),
    )


class CampaignWorkload:
    """``run_campaign("combined")``, one campaign per fresh process.

    Unnamed bridges take their name from a module-level counter in
    ``repro.interconnect.bridge`` and that name seeds the lossy link's
    RNG, so a second campaign in one process diverges from the first.
    Each iteration therefore runs as the first campaign of its own
    process, as ``repro faults`` replays a seed; the defect is left
    visible (see NOTES.md).
    """

    rss_scope = "children"
    name = "faults-combined"

    def iterate(self, seed: int, traced: bool) -> Iteration:
        started = time.monotonic()
        completed = subprocess.run(
            [sys.executable, str(HERE / "campaign_child.py"), str(seed), str(int(traced))],
            capture_output=True, text=True, timeout=CAMPAIGN_TIMEOUT_S, check=False,
        )
        if completed.returncode != 0:
            return failed_iteration(
                f"campaign process exited {completed.returncode}: {completed.stderr[-2000:]}"
            )
        report = json.loads(completed.stdout.strip().splitlines()[-1])
        report["setup_s"] = report.pop("ready") - started
        return Iteration(**report)


def campaign_iteration(seed: int, traced: bool) -> Iteration:
    """Body of one faults-combined iteration (runs in campaign_child.py)."""
    sink, tracer, registry, span = _instruments(traced)
    started = time.perf_counter()
    with profiling(registry) if traced else nullcontext(), span("bench.iteration"):
        with span("resilience.run_campaign"):
            result = run_campaign(
                "combined", spec=CAMPAIGN_SPEC, seed=seed, check_theorem1=False,
                tracer=tracer, metrics=registry,
            )
    finished = time.perf_counter()

    bridge = result.bridge
    history = bridge.system_a.recorder.history()
    writes = sum(1 for op in history if op.is_write and not op.is_interconnect)
    intra = bridge.system_a.network.messages_sent + bridge.system_b.network.messages_sent
    failures = [] if result.ok else [f"campaign: {result.summary()}"]
    stats = {
        "finish_time": result.finish_time,
        "operations": result.operations,
        "intra_messages": intra,
        "pairs_delivered": result.pairs_delivered,
        "data_frames": result.data_frames_sent,
        "retransmissions": result.retransmissions,
        "frames_lost": result.frames_lost_on_wire,
        "acks": result.acks_sent,
        "crashes": result.crashes,
        "recoveries": result.recoveries,
        "wal_appends": result.wal_appends,
        "history": history_digest(history),
    }
    sim = {
        "messages_per_write": (intra + result.pairs_delivered) / writes,
        "sim_finish_time": result.finish_time,
    }
    iteration = Iteration(0.0, finished - started, result.operations, 1, failures, stats, sim)
    if traced:
        derive_s, check_s = _profiled_checker(registry)
        campaign_s = span.duration("resilience.run_campaign")
        counts = {
            "sim.events": registry.total("sim_events_total"),
            "sim.network.messages": registry.total("channel_messages_total"),
            "interconnect.pairs": registry.total("is_pairs_sent_total"),
            "interconnect.crossings": float(result.pairs_delivered),
            "obs.trace_events": float(sink.events),
            "resilience.data_frames": float(result.data_frames_sent),
            "resilience.retransmissions": float(result.retransmissions),
            "resilience.frames_lost": float(result.frames_lost_on_wire),
            "resilience.acks": float(result.acks_sent),
            "resilience.wal_appends": float(result.wal_appends),
            "resilience.recoveries": float(result.recoveries),
            "resilience.goodput_ratio": result.pairs_delivered / result.data_frames_sent,
            **sink.visibility(),
        }
        iteration.layers = _layers(
            span, counts, derive_s=derive_s, check_s=check_s,
            checked_ops=result.operations, kernel_s=campaign_s - derive_s - check_s,
            nested_checker_s=derive_s + check_s,
        )
        iteration.spans = span.records
    return iteration


WORKLOADS = {
    workload.name: workload
    for workload in (
        SimWorkload("bridge-check", systems=2, write_ratio=0.4, check=True),
        SimWorkload("tree-propagate", systems=5, write_ratio=0.8, check=False),
        ExploreWorkload(),
        CampaignWorkload(),
    )
}
