"""Executable experiment runners (one per DESIGN.md experiment id).

Single home for the measurement code behind the EXPERIMENTS.md
generator (``python -m repro experiments``, which also checks the
paper's claims), the rest of the command-line interface and the tests.
Each function builds, runs and measures one configuration; the callers
decide what to sweep and how to present it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.checker import check_causal, check_causal_convergence, check_pram, check_sequential
from repro.errors import CheckerError
from repro.interconnect.bridge import Bridge, connect
from repro.interconnect.topology import interconnect
from repro.memory.history import History
from repro.memory.program import Read, Sleep, Write
from repro.memory.recorder import HistoryRecorder
from repro.memory.system import DSMSystem
from repro.obs import TrafficMeter, VisibilityTracker
from repro.protocols import ProtocolSpec, get
from repro.sim.channel import (
    FaultPlan,
    PeriodicAvailability,
    ReliableFifoChannel,
    UniformDelay,
)
from repro.sim.core import Simulator
from repro.workloads import WorkloadSpec, build_interconnected, populate_system
from repro.workloads.scenarios import App, Cast, Member, build
from repro.workloads.scenarios import (
    lemma1_scenario,
    poll_until,
    run_until_quiescent,
    section3_counterexample,
)

#: Latency experiment constants (the paper's l and d).
LATENCY_L = 2.0
LATENCY_D = 5.0

_WRITES_ONLY = WorkloadSpec(processes=4, ops_per_process=5, write_ratio=1.0)


def _run_alone(
    spec: ProtocolSpec, workload: WorkloadSpec, seed: int, **populate: Any
) -> tuple[DSMSystem, History, TrafficMeter]:
    """Run *workload* on one system "S" of *spec*, metered, to quiescence."""
    sim = Simulator()
    system = DSMSystem(sim, "S", spec, recorder=HistoryRecorder(), seed=seed)
    meter = TrafficMeter().attach(system.network)
    populate_system(system, workload, seed=seed, **populate)
    run_until_quiescent(sim, [system])
    return system, system.recorder.history(), meter


def _two_systems(seed: int = 0) -> tuple[Simulator, HistoryRecorder, list[DSMSystem]]:
    """Vector-causal systems S0 and S1, seeded *seed* and *seed* + 1, on
    one simulator and one recorder."""
    sim = Simulator()
    recorder = HistoryRecorder()
    systems = [
        DSMSystem(sim, f"S{index}", get("vector-causal"), recorder=recorder, seed=seed + index)
        for index in range(2)
    ]
    return sim, recorder, systems


def _writes(history: History) -> int:
    return sum(1 for op in history if op.is_write)


# -- E1 / E2: message counts ---------------------------------------------------


def messages_per_write_flat(n: int, protocol: str = "vector-causal") -> float:
    """Measured messages per write in one flat system of *n* processes."""
    system, history, _ = _run_alone(
        get(protocol), WorkloadSpec(processes=n, ops_per_process=5, write_ratio=1.0), n
    )
    return system.network.messages_sent / _writes(history)


def messages_per_write_interconnected(
    m: int, shared: bool, protocol: str = "vector-causal"
) -> tuple[float, int]:
    """Measured (messages per write, n) across *m* interconnected systems."""
    result = build_interconnected(
        [protocol] * m,
        _WRITES_ONLY,
        topology="star" if shared else "chain",
        shared=shared,
        seed=m,
    )
    run_until_quiescent(result.sim, result.systems)
    connection = result.interconnection
    total = connection.intra_system_messages + connection.inter_system_messages
    return total / _writes(result.global_history), connection.total_app_mcs


# -- E3: bottleneck link -------------------------------------------------------


def crossings_per_write_flat(per_side: int) -> float:
    """Inter-LAN crossings per write: one flat system split across 2 LANs."""
    _, history, meter = _run_alone(
        get("vector-causal"),
        WorkloadSpec(processes=2 * per_side, ops_per_process=4, write_ratio=1.0),
        per_side,
        segments=["lan0", "lan1"],
    )
    return meter.crossings("lan0", "lan1") / _writes(history)


def crossings_per_write_bridged(per_side: int) -> float:
    """Crossings per write with one system per LAN and an IS bridge."""
    sim, recorder, systems = _two_systems()
    for index, system in enumerate(systems):
        populate_system(
            system,
            WorkloadSpec(processes=per_side, ops_per_process=4, write_ratio=1.0),
            seed=index * 31,
        )
    connection = interconnect(systems, delay=1.0)
    run_until_quiescent(sim, systems)
    return connection.inter_system_messages / _writes(recorder.history().without_interconnect())


# -- E4: latency -----------------------------------------------------------------


def latency_flat(l: float = LATENCY_L) -> float:
    """Worst visibility latency of one flat system (should be l)."""
    sim = Simulator()
    system = DSMSystem(
        sim, "S", get("vector-causal"), recorder=HistoryRecorder(), default_delay=l
    )
    system.add_application("writer", [Sleep(1.0), Write("x", 1)])
    system.add_application("probe", [])
    tracker = VisibilityTracker().attach_systems([system])
    run_until_quiescent(sim, [system])
    return tracker.worst_latency()


def latency_tree(
    m: int,
    topology: str,
    shared: bool,
    l: float = LATENCY_L,
    d: float = LATENCY_D,
) -> float:
    """Worst visibility latency of *m* systems in a star or chain."""
    writer_system = 1 if topology == "star" else 0
    writer = App("writer", (Sleep(1.0), Write("x", 1)))
    probe = App("probe", ())
    members = tuple(
        Member(get("vector-causal"), l, (writer if index == writer_system else probe,))
        for index in range(m)
    )
    result = build(Cast(members, delay=d, topology=topology, shared=shared))
    tracker = VisibilityTracker().attach_systems(result.systems)
    run_until_quiescent(result.sim, result.systems)
    return tracker.worst_latency()


# -- E5: response time --------------------------------------------------------------


@dataclass(frozen=True)
class ResponseStats:
    """Summary statistics of operation response times (§6: "our
    IS-protocols should not affect the response time a process observes")."""

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


def response_time(protocols: list[str], seed: int = 5) -> ResponseStats:
    """Response-time stats of the first system's processes."""
    spec = WorkloadSpec(processes=4, ops_per_process=6, write_ratio=0.5)
    result = build_interconnected(protocols, spec, seed=seed)
    run_until_quiescent(result.sim, result.systems)
    return response_stats(result.systems[:1])


# -- E8 / E9: ablations ---------------------------------------------------------------


def section3_violation_rate(read_before_send: bool, seeds: range = range(10)) -> float:
    """Fraction of §3-scenario runs whose global computation is non-causal."""
    violations = 0
    for seed in seeds:
        result = section3_counterexample(read_before_send=read_before_send, seed=seed)
        run_until_quiescent(result.sim, result.systems)
        if not check_causal(result.global_history).ok:
            violations += 1
    return violations / len(seeds)


def lemma1_violation_rate(use_pre_update: bool, seeds: range = range(20)) -> float:
    """Fraction of Lemma-1-scenario runs that violate global causality."""
    violations = 0
    for lag_seed in seeds:
        result = lemma1_scenario(use_pre_update=use_pre_update, lag_seed=lag_seed)
        run_until_quiescent(result.sim, result.systems)
        if not check_causal(result.global_history).ok:
            violations += 1
    return violations / len(seeds)


# -- E10: sequential bridging -----------------------------------------------------------


def sequential_bridge_random(seed: int) -> tuple[bool, bool]:
    """(causal?, still sequential?) for one random bridged-sequential run."""
    result = build_interconnected(
        ["aw-sequential", "aw-sequential"],
        WorkloadSpec(processes=2, ops_per_process=5),
        seed=seed,
    )
    run_until_quiescent(result.sim, result.systems)
    history = result.global_history
    return check_causal(history).ok, check_sequential(history).ok


def sequential_bridge_dekker() -> tuple[bool, bool]:
    """(causal?, sequential?) of the cross-system Dekker race."""
    s0 = Member(get("aw-sequential"), 1.0, (App("A", (Write("x", 1), Read("y"))),))
    s1 = Member(get("aw-sequential"), 1.0, (App("B", (Write("y", 2), Read("x"))),))
    result = build(Cast((s0, s1), delay=5.0, topology="star"))
    run_until_quiescent(result.sim, result.systems)
    history = result.global_history
    return check_causal(history).ok, check_sequential(history).ok


# -- E11: dial-up ---------------------------------------------------------------------------


def dialup_run(
    period: float, up_fraction: float, seed: int = 0
) -> tuple[float, int, float, bool]:
    """(finish time, max queued pairs, mean pair delay, causal?) for one
    two-system run whose IS link follows the given duty cycle."""
    sim, recorder, systems = _two_systems(seed)
    for index, system in enumerate(systems):
        populate_system(
            system,
            WorkloadSpec(processes=2, ops_per_process=5, write_ratio=0.7),
            seed=seed + 40 * index,
        )
    availability = None
    if up_fraction < 1.0:
        availability = PeriodicAvailability(period=period, up_fraction=up_fraction)
    connection = interconnect(systems, availability=availability, delay=1.0, seed=seed)
    run_until_quiescent(sim, systems)
    bridge = connection.bridges[0]
    stats = (bridge.channel_ab.stats, bridge.channel_ba.stats)
    max_queue = max(side.max_queue_length for side in stats)
    mean_delay = max(side.mean_delay for side in stats)
    causal = check_causal(recorder.history().without_interconnect()).ok
    return sim.now, max_queue, mean_delay, causal


# -- X1-X3: one system, one workload ----------------------------------------------------------


def partial_replication(replication_factor: int, seed: int = 0) -> dict[str, Any]:
    """Traffic, remote reads and response time of 6 partial-causal processes."""
    spec = get("partial-causal").with_options(replication_factor=replication_factor)
    system, history, meter = _run_alone(
        spec, WorkloadSpec(processes=6, ops_per_process=6, write_ratio=0.5), seed
    )
    writes = _writes(history)
    return {
        "value_msgs_per_write": meter.by_kind["PartialUpdate"] / writes,
        "notice_msgs_per_write": meter.by_kind["WriteNotice"] / writes,
        "remote_reads": sum(app.mcs.remote_reads for app in system.app_processes),
        "mean_response": response_stats([system]).mean,
        "causal": check_causal(history).ok,
    }


def invalidation_traffic(protocol: str, write_ratio: float, seed: int = 0) -> dict[str, Any]:
    """Value traffic and response time of 5 processes."""
    system, history, meter = _run_alone(
        get(protocol), WorkloadSpec(processes=5, ops_per_process=6, write_ratio=write_ratio), seed
    )
    writes = max(_writes(history), 1)
    values = meter.by_kind["CausalUpdate"] + meter.by_kind["FetchReply"]
    return {
        "value_msgs_per_write": values / writes,
        "bytes_per_write": meter.total_bytes / writes,
        "mean_response": response_stats([system]).mean,
        "causal": check_causal(history).ok,
    }


#: The X3 protocol zoo's rows, in table order.
ZOO_PROTOCOLS = [
    "vector-causal", "parametrized-causal", "precise-causal", "delayed-causal",
    "partial-causal", "invalidation-causal", "aw-sequential", "parametrized-sequential",
    "lamport-sequential", "hybrid", "parametrized-cache", "fifo-apply",
]

#: The one X3 workload every zoo member runs.
ZOO_WORKLOAD = WorkloadSpec(processes=4, ops_per_process=6, write_ratio=0.5)


def run_zoo_member(protocol: str, seed: int = 11) -> dict[str, Any]:
    """Cost and checker verdicts of *protocol* on :data:`ZOO_WORKLOAD`."""
    system, history, _ = _run_alone(get(protocol), ZOO_WORKLOAD, seed)
    return {
        "protocol": protocol,
        "msgs_per_write": system.network.messages_sent / max(_writes(history), 1),
        "mean_response": response_stats([system]).mean,
        "causal": check_causal(history).ok,
        "ccv": check_causal_convergence(history).ok,
        "pram": check_pram(history).ok,
        "sequential": check_sequential(history).ok if len(history) <= 60 else None,
    }


# -- X4: coalescing on dial-up links ------------------------------------------------------------


def coalescing_burst(coalesce: bool, rewrites: int, variables: int = 2) -> tuple[int, int, bool]:
    """One system bursts *rewrites* writes per variable while the link is
    down 99% of the time; returns (pairs crossing, coalesced, causal)."""
    sim, recorder, (s0, s1) = _two_systems()
    program = []
    for var_index in range(variables):
        for rewrite in range(rewrites):
            program += [Write(f"v{var_index}", f"v{var_index}.{rewrite}"), Sleep(1.0)]
    s0.add_application("burster", program)
    s1.add_application("probe", [Sleep(1500.0)])
    bridge = interconnect(
        [s0, s1],
        delay=1.0,
        availability=PeriodicAvailability(period=1000.0, up_fraction=0.001),
        coalesce_queued=coalesce,
    ).bridges[0]
    run_until_quiescent(sim, [s0, s1])
    causal = check_causal(recorder.history().without_interconnect()).ok
    return bridge.channel_ab.stats.messages_sent, bridge.isp_a.pairs_coalesced, causal


# -- X7: the reliable-FIFO channel assumption ----------------------------------------------------

#: The seeds each X7 rate is measured over.
CHANNEL_SEEDS = range(12)


def _channel_pair(faults: FaultPlan, seed: int, delay: Any = 1.0, dedup: bool = False):
    """Two systems joined by a bridge whose channels deliver under *faults*."""
    sim, recorder, (s0, s1) = _two_systems(seed)
    channel = functools.partial(ReliableFifoChannel, faults=faults)
    bridge = connect(s0, s1, delay=delay, channel_factory=channel, seed=seed, dedup_incoming=dedup)
    return sim, recorder, s0, s1, bridge


def channel_race_is_causal(seed: int, reorder: bool = True) -> bool:
    """w(x)v then w(y)u causally ordered in S0; the observer in S1 reads
    y=u then x. A reordering (reliable, not FIFO) channel lets it see u
    without v. Returns whether the global computation stayed causal."""
    faults = FaultPlan(reorder_probability=1.0, reorder_spread=0.0) if reorder else None
    sim, recorder, s0, s1, _ = _channel_pair(faults, seed, delay=UniformDelay(0.1, 12.0))
    s0.add_application("A", [Sleep(1.0), Write("x", "v")])
    s0.add_application("B", poll_until("x", "v", then=[Write("y", "u")], poll_interval=0.25))
    s1.add_application("C", poll_until("y", "u", then=[Read("x")], poll_interval=0.25))
    run_until_quiescent(sim, [s0, s1])
    return check_causal(recorder.history().without_interconnect()).ok


def duplicating_run(dedup: bool, seed: int = 0) -> tuple[History, Bridge]:
    """Three writes in S0 cross an at-least-once channel (half the frames
    arrive twice); S1 reads later. Returns the history and the bridge."""
    sim, recorder, s0, s1, bridge = _channel_pair(
        FaultPlan(duplicate_probability=0.5), seed, dedup=dedup
    )
    s0.add_application(
        "A", [Write("x", "one"), Sleep(2.0), Write("y", "two"), Sleep(2.0), Write("x", "three")]
    )
    s1.add_application("B", [Sleep(40.0), Read("x"), Read("y")])
    run_until_quiescent(sim, [s0, s1])
    return recorder.history(), bridge


def reordering_violation_rate() -> float:
    """Fraction of seeds whose reordering-channel race is non-causal."""
    return sum(not channel_race_is_causal(seed) for seed in CHANNEL_SEEDS) / len(CHANNEL_SEEDS)


def duplication_breakage_rate(dedup: bool) -> tuple[int, int]:
    """(runs that broke value-uniqueness in S1, runs that carried a duplicate)."""
    broken = effective = 0
    for seed in CHANNEL_SEEDS:
        history, bridge = duplicating_run(dedup, seed)
        if bridge.channel_ab.frames_duplicated:
            effective += 1
            try:
                history.for_system("S1").validate()
            except CheckerError:
                broken += 1
    return broken, effective


__all__ = [
    "LATENCY_L",
    "LATENCY_D",
    "messages_per_write_flat",
    "messages_per_write_interconnected",
    "crossings_per_write_flat",
    "crossings_per_write_bridged",
    "latency_flat",
    "latency_tree",
    "ResponseStats",
    "response_stats",
    "response_time",
    "section3_violation_rate",
    "lemma1_violation_rate",
    "sequential_bridge_random",
    "sequential_bridge_dekker",
    "dialup_run",
    "partial_replication",
    "invalidation_traffic",
    "ZOO_PROTOCOLS",
    "ZOO_WORKLOAD",
    "run_zoo_member",
    "coalescing_burst",
    "CHANNEL_SEEDS",
    "channel_race_is_causal",
    "duplicating_run",
    "reordering_violation_rate",
    "duplication_breakage_rate",
]
