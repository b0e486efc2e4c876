"""Fault-injection campaigns: adversarial runs, machine-checked verdicts.

A campaign executes a random workload over two interconnected causal
systems whose IS-link is the *resilient* transport over a lossy wire,
with IS-process crashes injected mid-flight, and then pipes the recorded
histories through the existing verification stack:

* :func:`repro.checker.check_causal` on the global computation alpha^T —
  Theorem 1's conclusion must survive the faults;
* :func:`repro.checker.theorem1.verify_theorem1_construction` per
  application process — the paper's *proof construction* (Definition 7,
  Lemmas 7–9) must still go through on the recovered execution.

Named scenarios (the catalogue is in :data:`SCENARIOS`):

* ``baseline`` — no faults; sanity anchor, also measures overhead floor.
* ``lossy-link`` — heavy drop/duplicate/reorder on every frame.
* ``flapping-partition`` — the link black-holes traffic in repeated
  windows (frames sent during a window are *lost*, unlike the §1.1
  dial-up schedule where they queue).
* ``is-crash-storm`` — IS-processes on both sides crash and recover
  repeatedly, including back-to-back crashes of alternating sides.
* ``combined`` — all of the above at once.

Everything is driven by the deterministic sim clock and seeded rng: a
failing campaign replays exactly from its (scenario, seed) pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.checker import check_causal
from repro.checker.report import CheckResult
from repro.checker.theorem1 import verify_theorem1_construction
from repro.errors import CheckerError, ConfigurationError, SimulationError
from repro.interconnect.bridge import Bridge, connect
from repro.memory.recorder import HistoryRecorder
from repro.memory.system import DSMSystem
from repro.protocols import base as protocol_base
from repro.resilience.transport import RetryPolicy
from repro.sim.channel import FaultPlan
from repro.sim.core import Simulator
from repro.workloads.generator import WorkloadSpec, populate_system
from repro.workloads.values import ValueFactory


@dataclass(frozen=True)
class CrashEvent:
    """Kill one side's IS-process at *time*; restart it *down_for* later."""

    time: float
    side: str  # "a" or "b"
    down_for: float

    def __post_init__(self) -> None:
        if self.side not in ("a", "b"):
            raise ConfigurationError(f"crash side must be 'a' or 'b', got {self.side!r}")
        if self.time < 0 or self.down_for <= 0:
            raise ConfigurationError(f"bad crash event {self}")


@dataclass(frozen=True)
class FaultScenario:
    """A named bundle of link faults and process crashes."""

    name: str
    description: str
    faults: FaultPlan = FaultPlan()
    crashes: tuple[CrashEvent, ...] = ()


SCENARIOS: dict[str, FaultScenario] = {
    scenario.name: scenario
    for scenario in (
        FaultScenario(
            name="baseline",
            description="no faults — the overhead floor of the session layer",
        ),
        FaultScenario(
            name="lossy-link",
            description="20% drop, 10% duplicate, 15% reorder on every frame",
            faults=FaultPlan(
                drop_probability=0.20,
                duplicate_probability=0.10,
                reorder_probability=0.15,
                reorder_spread=4.0,
            ),
        ),
        FaultScenario(
            name="flapping-partition",
            description="repeated link black-holes; frames sent during a window are lost",
            faults=FaultPlan(
                drop_probability=0.02,
                partitions=((15.0, 30.0), (45.0, 60.0), (75.0, 90.0), (105.0, 115.0)),
            ),
        ),
        FaultScenario(
            name="is-crash-storm",
            description="IS-processes crash and recover repeatedly on both sides",
            crashes=(
                CrashEvent(time=12.0, side="a", down_for=18.0),
                CrashEvent(time=40.0, side="b", down_for=12.0),
                CrashEvent(time=70.0, side="a", down_for=10.0),
                CrashEvent(time=95.0, side="b", down_for=8.0),
            ),
        ),
        FaultScenario(
            name="combined",
            description="lossy + flapping link with IS crashes on both sides",
            faults=FaultPlan(
                drop_probability=0.10,
                duplicate_probability=0.05,
                reorder_probability=0.10,
                reorder_spread=3.0,
                partitions=((25.0, 40.0), (80.0, 95.0)),
            ),
            crashes=(
                CrashEvent(time=15.0, side="a", down_for=15.0),
                CrashEvent(time=55.0, side="b", down_for=12.0),
            ),
        ),
    )
}


#: Workload shape tuned so traffic genuinely overlaps the fault windows:
#: staggered starts and think times stretch the run well past t=100.
DEFAULT_SPEC = WorkloadSpec(
    processes=3,
    ops_per_process=12,
    write_ratio=0.6,
    max_think=6.0,
    max_stagger=25.0,
)


@dataclass
class CampaignResult:
    """Everything a test, the CLI, or a benchmark needs from one campaign."""

    scenario: FaultScenario
    seed: int
    finish_time: float
    causal_verdict: CheckResult
    theorem1_checked: bool
    theorem1_ok: bool
    theorem1_failures: list[str]
    operations: int
    pairs_delivered: int
    data_frames_sent: int
    retransmissions: int
    frames_lost_on_wire: int
    acks_sent: int
    crashes: int
    recoveries: int
    pairs_recovered: int
    upcalls_replayed: int
    wal_appends: int
    wal_checkpoints: int
    bridge: Optional[Bridge] = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.causal_verdict.ok and self.theorem1_ok

    @property
    def retransmit_overhead(self) -> float:
        if self.data_frames_sent == 0:
            return 0.0
        return self.retransmissions / self.data_frames_sent

    @property
    def goodput(self) -> float:
        """Application pairs delivered per unit of virtual time."""
        if self.finish_time <= 0:
            return 0.0
        return self.pairs_delivered / self.finish_time

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        lines = [
            f"scenario {self.scenario.name!r} (seed {self.seed}): {verdict}",
            f"  {self.scenario.description}",
            f"  causal checker : {self.causal_verdict.summary()}",
            f"  theorem 1 proof: "
            + ("not checked"
               if not self.theorem1_checked
               else "construction verified for every application process"
               if self.theorem1_ok
               else "; ".join(self.theorem1_failures)),
            f"  finished t={self.finish_time:.1f}, {self.operations} application ops, "
            f"{self.pairs_delivered} pairs across the link",
            f"  wire: {self.data_frames_sent} DATA frames "
            f"({self.retransmissions} retransmits, {self.retransmit_overhead:.0%} overhead), "
            f"{self.frames_lost_on_wire} lost, {self.acks_sent} acks",
            f"  crashes: {self.crashes} ({self.recoveries} recoveries, "
            f"{self.pairs_recovered} pairs replayed from WAL, "
            f"{self.upcalls_replayed} missed updates propagated late)",
            f"  wal: {self.wal_appends} appends, {self.wal_checkpoints} checkpoints",
        ]
        return "\n".join(lines)


def run_campaign(
    scenario: FaultScenario | str,
    protocols: Sequence[str] = ("vector-causal", "vector-causal"),
    spec: Optional[WorkloadSpec] = None,
    seed: int = 0,
    delay: float = 1.0,
    retry: Optional[RetryPolicy] = None,
    check_theorem1: bool = True,
    max_events: int = 4_000_000,
    tracer=None,
    metrics=None,
) -> CampaignResult:
    """Run one fault-injection campaign and machine-check the outcome.

    Builds two systems (*protocols* names them), populates the random
    workload *spec* in each, bridges them with the resilient transport in
    WAL-durability mode, injects the scenario's faults and crashes, runs
    to quiescence, and verifies causality plus the Theorem 1 construction.
    """
    if isinstance(scenario, str):
        try:
            scenario = SCENARIOS[scenario]
        except KeyError:
            raise ConfigurationError(
                f"unknown scenario {scenario!r}; known: {', '.join(sorted(SCENARIOS))}"
            ) from None
    if len(protocols) != 2:
        raise ConfigurationError("campaigns interconnect exactly two systems")
    spec = spec or DEFAULT_SPEC

    sim = Simulator()
    if tracer is not None or metrics is not None:
        from repro.obs.instruments import combine

        sim.instruments = combine(tracer, metrics, None)
    recorder = HistoryRecorder()
    values = ValueFactory()
    systems: list[DSMSystem] = []
    for index, name in enumerate(protocols):
        system = DSMSystem(
            sim,
            name=f"S{index}",
            protocol=protocol_base.get(name),
            recorder=recorder,
            seed=seed + index,
            default_delay=1.0,
        )
        populate_system(system, spec, values=values, seed=seed + 100 * index)
        systems.append(system)

    bridge = connect(
        systems[0],
        systems[1],
        delay=delay,
        transport="resilient",
        faults=scenario.faults,
        durability="wal",
        retry=retry,
        seed=seed,
    )
    for event in scenario.crashes:
        isp = bridge.isp_a if event.side == "a" else bridge.isp_b
        sim.schedule_at(event.time, isp.crash)
        sim.schedule_at(event.time + event.down_for, isp.recover)

    sim.run(max_events=max_events)
    if sim.pending:
        raise SimulationError(
            f"campaign {scenario.name!r} did not quiesce within {max_events} events"
        )
    for system in systems:
        system.check_quiescent()
    if not (bridge.isp_a.alive and bridge.isp_b.alive):
        raise SimulationError(f"campaign {scenario.name!r} ended with a dead IS-process")

    full = recorder.history()
    global_history = full.without_interconnect()
    causal_verdict = check_causal(global_history)

    theorem1_ok = True
    theorem1_failures: list[str] = []
    if check_theorem1:
        for proc in sorted({op.proc for op in full if not op.is_interconnect}):
            try:
                verify_theorem1_construction(full, proc)
            except CheckerError as exc:
                theorem1_ok = False
                theorem1_failures.append(f"{proc}: {exc}")

    isp_a, isp_b = bridge.isp_a, bridge.isp_b
    channel_stats = [bridge.channel_ab, bridge.channel_ba]
    return CampaignResult(
        scenario=scenario,
        seed=seed,
        finish_time=sim.now,
        causal_verdict=causal_verdict,
        theorem1_checked=check_theorem1,
        theorem1_ok=theorem1_ok,
        theorem1_failures=theorem1_failures,
        operations=len(global_history),
        pairs_delivered=sum(channel.stats.messages_delivered for channel in channel_stats),
        data_frames_sent=sum(channel.wire.data_frames_sent for channel in channel_stats),
        retransmissions=sum(channel.wire.retransmissions for channel in channel_stats),
        frames_lost_on_wire=sum(channel.frames_lost_on_wire for channel in channel_stats),
        acks_sent=sum(channel.wire.acks_sent for channel in channel_stats),
        crashes=isp_a.crashes + isp_b.crashes,
        recoveries=isp_a.recoveries + isp_b.recoveries,
        pairs_recovered=isp_a.pairs_recovered + isp_b.pairs_recovered,
        upcalls_replayed=isp_a.upcalls_replayed + isp_b.upcalls_replayed,
        wal_appends=isp_a.wal.appends + isp_b.wal.appends,
        wal_checkpoints=isp_a.wal.checkpoints_taken + isp_b.wal.checkpoints_taken,
        bridge=bridge,
    )


__all__ = [
    "CrashEvent",
    "FaultScenario",
    "SCENARIOS",
    "DEFAULT_SPEC",
    "CampaignResult",
    "run_campaign",
]
