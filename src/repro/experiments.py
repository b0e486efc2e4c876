"""Executable experiment runners (one per DESIGN.md experiment id).

Single home for the measurement code behind three consumers: the
benchmark suite (``benchmarks/``), the EXPERIMENTS.md generator
(``scripts/run_experiments.py``) and the command-line interface
(``python -m repro``). Each function builds, runs and measures one
configuration; the callers decide what to sweep and how to present it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.checker import check_causal, check_sequential
from repro.interconnect.topology import interconnect
from repro.memory.program import Read, Sleep, Write
from repro.memory.recorder import HistoryRecorder
from repro.memory.system import DSMSystem
from repro.obs import TrafficMeter, VisibilityTracker
from repro.protocols import get
from repro.sim.channel import PeriodicAvailability
from repro.sim.core import Simulator
from repro.workloads import WorkloadSpec, build_interconnected, populate_system
from repro.workloads.scenarios import (
    lemma1_scenario,
    run_until_quiescent,
    section3_counterexample,
)

#: Latency experiment constants (the paper's l and d).
LATENCY_L = 2.0
LATENCY_D = 5.0

_WRITES_ONLY = WorkloadSpec(processes=4, ops_per_process=5, write_ratio=1.0)


# -- E1 / E2: message counts ---------------------------------------------------


def messages_per_write_flat(n: int, protocol: str = "vector-causal") -> float:
    """Measured messages per write in one flat system of *n* processes."""
    sim = Simulator()
    recorder = HistoryRecorder()
    system = DSMSystem(sim, "S", get(protocol), recorder=recorder, seed=n)
    populate_system(
        system, WorkloadSpec(processes=n, ops_per_process=5, write_ratio=1.0), seed=n
    )
    run_until_quiescent(sim, [system])
    writes = sum(1 for op in recorder.history() if op.is_write)
    return system.network.messages_sent / writes


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
    writes = sum(1 for op in result.global_history if op.is_write)
    connection = result.interconnection
    total = connection.intra_system_messages + connection.inter_system_messages
    return total / writes, connection.total_app_mcs


# -- E3: bottleneck link -------------------------------------------------------


def crossings_per_write_flat(per_side: int) -> float:
    """Inter-LAN crossings per write: one flat system split across 2 LANs."""
    sim = Simulator()
    recorder = HistoryRecorder()
    system = DSMSystem(sim, "S", get("vector-causal"), recorder=recorder, seed=per_side)
    meter = TrafficMeter().attach(system.network)
    populate_system(
        system,
        WorkloadSpec(processes=2 * per_side, ops_per_process=4, write_ratio=1.0),
        seed=per_side,
        segments=["lan0", "lan1"],
    )
    run_until_quiescent(sim, [system])
    writes = sum(1 for op in recorder.history() if op.is_write)
    return meter.crossings("lan0", "lan1") / writes


def crossings_per_write_bridged(per_side: int) -> float:
    """Crossings per write with one system per LAN and an IS bridge."""
    sim = Simulator()
    recorder = HistoryRecorder()
    systems = []
    for index in range(2):
        system = DSMSystem(
            sim, f"S{index}", get("vector-causal"), recorder=recorder, seed=index
        )
        populate_system(
            system,
            WorkloadSpec(processes=per_side, ops_per_process=4, write_ratio=1.0),
            seed=index * 31,
        )
        systems.append(system)
    connection = interconnect(systems, delay=1.0)
    run_until_quiescent(sim, systems)
    writes = sum(1 for op in recorder.history().without_interconnect() if op.is_write)
    return connection.inter_system_messages / writes


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
    sim = Simulator()
    recorder = HistoryRecorder()
    systems = [
        DSMSystem(
            sim, f"S{index}", get("vector-causal"), recorder=recorder,
            seed=index, default_delay=l,
        )
        for index in range(m)
    ]
    writer_system = 1 if topology == "star" else 0
    systems[writer_system].add_application("writer", [Sleep(1.0), Write("x", 1)])
    for index in range(m):
        if index != writer_system:
            systems[index].add_application("probe", [])
    interconnect(systems, topology=topology, delay=d, shared=shared)
    tracker = VisibilityTracker().attach_systems(systems)
    run_until_quiescent(sim, systems)
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
    sim = Simulator()
    recorder = HistoryRecorder()
    s0 = DSMSystem(sim, "S0", get("aw-sequential"), recorder=recorder, seed=0)
    s1 = DSMSystem(sim, "S1", get("aw-sequential"), recorder=recorder, seed=1)
    s0.add_application("A", [Write("x", 1), Read("y")])
    s1.add_application("B", [Write("y", 2), Read("x")])
    interconnect([s0, s1], delay=5.0)
    run_until_quiescent(sim, [s0, s1])
    history = recorder.history().without_interconnect()
    return check_causal(history).ok, check_sequential(history).ok


# -- E11: dial-up ---------------------------------------------------------------------------


def dialup_run(
    period: float, up_fraction: float, seed: int = 0
) -> tuple[float, int, float, bool]:
    """(finish time, max queued pairs, mean pair delay, causal?) for one
    two-system run whose IS link follows the given duty cycle."""
    sim = Simulator()
    recorder = HistoryRecorder()
    systems = []
    for index in range(2):
        system = DSMSystem(
            sim, f"S{index}", get("vector-causal"), recorder=recorder, seed=seed + index
        )
        populate_system(
            system,
            WorkloadSpec(processes=2, ops_per_process=5, write_ratio=0.7),
            seed=seed + 40 * index,
        )
        systems.append(system)
    availability = None
    if up_fraction < 1.0:
        availability = PeriodicAvailability(period=period, up_fraction=up_fraction)
    connection = interconnect(systems, availability=availability, delay=1.0, seed=seed)
    run_until_quiescent(sim, systems)
    bridge = connection.bridges[0]
    max_queue = max(
        bridge.channel_ab.stats.max_queue_length,
        bridge.channel_ba.stats.max_queue_length,
    )
    mean_delay = max(
        bridge.channel_ab.stats.mean_delay, bridge.channel_ba.stats.mean_delay
    )
    causal = check_causal(recorder.history().without_interconnect()).ok
    return sim.now, max_queue, mean_delay, causal


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
]
