"""Canonical scenarios from the paper, plus reusable run harnesses.

* :func:`section3_counterexample` — the §3 example motivating the IS
  read: without it, value ``u`` (overwriting ``v``) can be propagated
  back with no causal tie to ``v``, and a process in the originating
  system reads ``u`` then ``v`` — violating causality of S^T.
* :func:`lemma1_scenario` — Property 1 / Lemma 1: a non-causal-updating
  MCS protocol propagates causally ordered writes out of order under
  IS-protocol 1, and in order under IS-protocol 2.
* :func:`build_interconnected` / :func:`run_until_quiescent` — the
  generic harness used by the integration tests and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence

from repro.errors import SimulationError
from repro.interconnect.is_process import ISProcess
from repro.interconnect.topology import Interconnection, interconnect
from repro.memory.history import History
from repro.memory.program import Command, Read, Sleep, Write
from repro.memory.recorder import HistoryRecorder
from repro.memory.system import DSMSystem
from repro.protocols import base as protocol_base
from repro.sim.core import Simulator
from repro.workloads.generator import WorkloadSpec, populate_system
from repro.workloads.values import ValueFactory


@dataclass
class ScenarioResult:
    """Everything a test or bench needs from one scenario run."""

    sim: Simulator
    systems: list[DSMSystem]
    interconnection: Optional[Interconnection]
    recorder: HistoryRecorder

    @property
    def history(self) -> History:
        return self.recorder.history()

    @property
    def global_history(self) -> History:
        """The paper's alpha^T: IS-process operations excluded."""
        return self.recorder.history().without_interconnect()

    def system_history(self, name: str) -> History:
        """The paper's alpha^k for the named system."""
        return self.recorder.history().for_system(name)

    def is_processes(self) -> list[ISProcess]:
        """Every IS-process of the run, once each, sorted by name: the
        bridges' endpoints and the systems' shared IS-processes."""
        seen: dict[str, ISProcess] = {}
        if self.interconnection is not None:
            for bridge in self.interconnection.bridges:
                for isp in (bridge.isp_a, bridge.isp_b):
                    seen.setdefault(isp.name, isp)
        for system in self.systems:
            shared = getattr(system, "_shared_isp", None)
            if shared is not None:
                seen.setdefault(shared.name, shared)
        return [seen[name] for name in sorted(seen)]

    def close(self) -> None:
        """Cut the run's reference cycles once it is over, so reference
        counting frees it at once instead of the cyclic collector.

        Each layer drops the back-edges it owns: the simulator its
        pending events and policy, each network its nodes and channels,
        each IS-process its peer channels and upcall attachment. The
        counters (:attr:`Simulator.events_processed`, each network's
        ``messages_sent``, the bridges' pair and channel counts) and the
        recorded history stay readable; the run cannot be resumed.
        """
        self.sim.close()
        for system in self.systems:
            system.network.close()
        for isp in self.is_processes():
            isp.close()


def run_until_quiescent(
    sim: Simulator,
    systems: Sequence[DSMSystem],
    max_events: int = 2_000_000,
) -> None:
    """Drain the simulation and verify every program ran to completion."""
    sim.run(max_events=max_events)
    if sim.pending:
        raise SimulationError(f"simulation did not quiesce within {max_events} events")
    for system in systems:
        system.check_quiescent()


def poll_until(
    var: str,
    expected: Any,
    then: Sequence[Command],
    poll_interval: float = 1.0,
    max_polls: int = 200,
) -> Iterator[Command]:
    """Generator program: read *var* until it returns *expected*, then run
    the *then* commands. Gives up silently after *max_polls* attempts."""
    for _ in range(max_polls):
        seen = yield Read(var)
        if seen == expected:
            break
        yield Sleep(poll_interval)
    else:
        return
    for command in then:
        yield command


def build_interconnected(
    protocol_names: Sequence[str],
    spec: WorkloadSpec,
    topology: str = "star",
    edges: Optional[Sequence[tuple[int, int]]] = None,
    seed: int = 0,
    intra_delay: float = 1.0,
    inter_delay: float = 1.0,
    shared: bool = True,
    read_before_send: bool = True,
    use_pre_update: Optional[bool] = None,
    tracer=None,
    metrics=None,
) -> ScenarioResult:
    """Build m systems (one protocol name each), populate random workloads,
    and interconnect them as a tree. Does not run the simulation.

    *tracer*/*metrics* attach observability to the run (see
    :mod:`repro.obs`); instrumentation records events but never perturbs
    the simulation, so seeded runs stay identical with or without it."""
    sim = Simulator()
    if tracer is not None or metrics is not None:
        from repro.obs.instruments import combine

        sim.instruments = combine(tracer, metrics, None)
    recorder = HistoryRecorder()
    values = ValueFactory()
    systems = []
    for index, name in enumerate(protocol_names):
        system = DSMSystem(
            sim,
            name=f"S{index}",
            protocol=protocol_base.get(name),
            recorder=recorder,
            seed=seed + index,
            default_delay=intra_delay,
        )
        populate_system(system, spec, values=values, seed=seed + 100 * index)
        systems.append(system)
    connection: Optional[Interconnection] = None
    if len(systems) > 1:
        connection = interconnect(
            systems,
            edges=edges,
            topology=topology,
            delay=inter_delay,
            shared=shared,
            read_before_send=read_before_send,
            use_pre_update=use_pre_update,
            seed=seed,
        )
    return ScenarioResult(sim=sim, systems=systems, interconnection=connection, recorder=recorder)


def section3_counterexample(read_before_send: bool, seed: int = 0) -> ScenarioResult:
    """The §3 motivating example (experiment E8).

    S0 runs a causal protocol with *precise* causal contexts (write
    timestamps cover only what the writer actually read or wrote) and a
    slow internal link from the writer to a distant reader. S1 overwrites
    the propagated value. With ``read_before_send=False`` the overwrite
    returns to S0 causally untethered and the distant reader observes
    ``u`` before ``v`` — exactly the violation the paper describes.
    """
    sim = Simulator()
    recorder = HistoryRecorder()
    spec = protocol_base.get("precise-causal")
    s0 = DSMSystem(sim, "S0", spec, recorder=recorder, seed=seed, default_delay=1.0)
    s1 = DSMSystem(sim, "S1", protocol_base.get("vector-causal"), recorder=recorder, seed=seed + 1)

    writer = s0.add_application(
        "S0/writer", [Sleep(1.0), Write("x", "v")], start_delay=0.0
    )
    reader = s0.add_application("S0/reader", [Read("x"), Sleep(3.0)] * 18, start_delay=5.0)
    # The writer's updates reach the distant reader very late.
    s0.network.set_delay(writer.mcs.name, reader.mcs.name, 40.0)

    s1.add_application(
        "S1/overwriter",
        poll_until("x", "v", then=[Write("x", "u")], poll_interval=1.0),
        start_delay=0.0,
    )
    connection = interconnect(
        [s0, s1], topology="chain", delay=1.0, read_before_send=read_before_send, seed=seed
    )
    return ScenarioResult(sim=sim, systems=[s0, s1], interconnection=connection, recorder=recorder)


def lemma1_scenario(use_pre_update: bool, lag_seed: int = 0, seed: int = 0) -> ScenarioResult:
    """Property 1 / Lemma 1 (experiment E9).

    S0 runs the delayed-apply protocol (no Causal Updating): causally
    ordered writes ``w(x)v -> w(y)u`` may hit the IS replica inverted.
    Under IS-protocol 1 (``use_pre_update=False``) the inversion leaks to
    S1 whose reader sees ``u`` without ``v``; under IS-protocol 2 the
    pre-update reads force causal application order and S^T stays causal.
    """
    sim = Simulator()
    recorder = HistoryRecorder()
    delayed = protocol_base.get("delayed-causal").with_options(max_lag=6.0, lag_seed=lag_seed)
    s0 = DSMSystem(sim, "S0", delayed, recorder=recorder, seed=seed, default_delay=1.0)
    s1 = DSMSystem(sim, "S1", protocol_base.get("vector-causal"), recorder=recorder, seed=seed + 1)

    s0.add_application("S0/writerA", [Sleep(1.0), Write("x", "v")])
    s0.add_application(
        "S0/writerB",
        poll_until("x", "v", then=[Write("y", "u")], poll_interval=0.5),
    )
    s1.add_application(
        "S1/observer",
        poll_until("y", "u", then=[Read("x")], poll_interval=0.5, max_polls=120),
    )
    connection = interconnect(
        [s0, s1],
        topology="chain",
        delay=0.5,
        use_pre_update=use_pre_update,
        seed=seed,
    )
    return ScenarioResult(sim=sim, systems=[s0, s1], interconnection=connection, recorder=recorder)


def fifo_causality_violation(seed: int = 0) -> ScenarioResult:
    """Deterministic causality violation of the FIFO-apply protocol.

    The classic transitive race: A writes ``x``, B reads it and writes
    ``y``, C (far from A) sees ``y`` before ``x``. PRAM holds — each
    process's writes are seen in order — but causality does not, which is
    what separates the two checkers in the negative-control tests.
    """
    sim = Simulator()
    recorder = HistoryRecorder()
    system = DSMSystem(
        sim, "S0", protocol_base.get("fifo-apply"), recorder=recorder, seed=seed, default_delay=1.0
    )
    writer = system.add_application("A", [Sleep(1.0), Write("x", "1")])
    system.add_application("B", poll_until("x", "1", then=[Write("y", "2")], poll_interval=0.5))
    observer_app = system.add_application(
        "C", poll_until("y", "2", then=[Read("x")], poll_interval=0.5, max_polls=100)
    )
    system.network.set_delay(writer.mcs.name, observer_app.mcs.name, 50.0)
    return ScenarioResult(sim=sim, systems=[system], interconnection=None, recorder=recorder)


def scrambled_pram_violation(lag_seed: int = 2, seed: int = 0) -> ScenarioResult:
    """A PRAM violation of the scrambled-apply protocol.

    A writes ``x`` twice in program order; the scrambled lags can apply
    the two updates inverted at the observer's replica, whose successive
    reads then see the writes out of the writer's program order. Whether
    the inversion happens depends on *lag_seed*; seed 2 exhibits it.
    """
    sim = Simulator()
    recorder = HistoryRecorder()
    spec = protocol_base.get("scrambled-apply").with_options(max_lag=8.0, lag_seed=lag_seed)
    system = DSMSystem(sim, "S0", spec, recorder=recorder, seed=seed, default_delay=1.0)
    system.add_application("A", [Sleep(1.0), Write("x", "1"), Write("x", "2")])
    system.add_application("C", [Read("x"), Sleep(1.0)] * 12)
    return ScenarioResult(sim=sim, systems=[system], interconnection=None, recorder=recorder)


def small_bridge_scenario(
    use_pre_update: bool,
    read_before_send: bool = True,
    seed: int = 0,
) -> ScenarioResult:
    """Small-scope bridge for exhaustive exploration: 2 systems x 2
    processes x 2 writes, every delay zero.

    With all delays collapsed to zero every replication delivery, IS
    flush and program step races at t=0, so the schedule explorer — which
    only reorders same-timestamp events — controls the *entire*
    interleaving space. Both systems run the causal-updating
    vector-causal protocol; the paper (Theorem 1) says every admissible
    interleaving keeps S^T causal under either IS-protocol, which is
    exactly what exhausting this scenario certifies at small scope.

    The two writes race to the *same* variable from different systems —
    the hardest small-scope shape, since every interleaving of local
    apply, IS propagation and remote apply is distinguishable to the
    double readers on both sides.
    """
    sim = Simulator()
    recorder = HistoryRecorder()
    spec = protocol_base.get("vector-causal")
    s0 = DSMSystem(sim, "S0", spec, recorder=recorder, seed=seed, default_delay=0.0)
    s1 = DSMSystem(sim, "S1", spec, recorder=recorder, seed=seed + 1, default_delay=0.0)
    s0.add_application("S0/p0", [Write("x", "a")])
    s0.add_application("S0/p1", [Read("x"), Read("x")])
    s1.add_application("S1/q0", [Write("x", "c")])
    s1.add_application("S1/q1", [Read("x"), Read("x")])
    connection = interconnect(
        [s0, s1],
        topology="chain",
        delay=0.0,
        use_pre_update=use_pre_update,
        read_before_send=read_before_send,
        seed=seed,
    )
    return ScenarioResult(sim=sim, systems=[s0, s1], interconnection=connection, recorder=recorder)


def small_noread_scenario(
    read_before_send: bool, seed: int = 0, reads: int = 2, max_polls: int = 3
) -> ScenarioResult:
    """Zero-delay rendering of the §3 no-read ablation.

    Same cast as :func:`section3_counterexample` — a precise-causal S0
    whose value is overwritten in S1 and propagated back — but with all
    delays zero, so reaching the violation is purely a matter of event
    *ordering*: the explorer must deliver the IS-process's untethered
    ``u``-write to the reader before the writer's own ``v``-update.
    With ``read_before_send=True`` the IS read tethers ``u`` to ``v``
    and no interleaving can invert them.
    """
    sim = Simulator()
    recorder = HistoryRecorder()
    s0 = DSMSystem(
        sim,
        "S0",
        protocol_base.get("precise-causal"),
        recorder=recorder,
        seed=seed,
        default_delay=0.0,
    )
    s1 = DSMSystem(
        sim,
        "S1",
        protocol_base.get("vector-causal"),
        recorder=recorder,
        seed=seed + 1,
        default_delay=0.0,
    )
    s0.add_application("S0/writer", [Write("x", "v")])
    # No Sleep separators: the driver's zero think-time wakeup between
    # operations is already a scheduling point the explorer can defer.
    s0.add_application("S0/reader", [Read("x")] * reads)
    s1.add_application(
        "S1/overwriter",
        poll_until(
            "x", "v", then=[Write("x", "u")], poll_interval=0.0, max_polls=max_polls
        ),
    )
    connection = interconnect(
        [s0, s1],
        topology="chain",
        delay=0.0,
        read_before_send=read_before_send,
        seed=seed,
    )
    return ScenarioResult(sim=sim, systems=[s0, s1], interconnection=connection, recorder=recorder)


def small_fifo_scenario(seed: int = 0, max_polls: int = 6) -> ScenarioResult:
    """Zero-delay rendering of the fifo-apply transitive race.

    A writes ``x``, B reads it and writes ``y``, C may apply the two
    (sender-FIFO but causally unordered) updates inverted. The original
    :func:`fifo_causality_violation` forces the inversion with a 50-unit
    link delay; here every delivery is at t=0 and the explorer has to
    *choose* the inverted application order at C's replica.
    """
    sim = Simulator()
    recorder = HistoryRecorder()
    system = DSMSystem(
        sim,
        "S0",
        protocol_base.get("fifo-apply"),
        recorder=recorder,
        seed=seed,
        default_delay=0.0,
    )
    system.add_application("A", [Write("x", "1")])
    system.add_application(
        "B",
        poll_until(
            "x", "1", then=[Write("y", "2")], poll_interval=0.0, max_polls=max_polls
        ),
    )
    system.add_application(
        "C",
        poll_until("y", "2", then=[Read("x")], poll_interval=0.0, max_polls=max_polls),
    )
    return ScenarioResult(sim=sim, systems=[system], interconnection=None, recorder=recorder)


__all__ = [
    "ScenarioResult",
    "run_until_quiescent",
    "poll_until",
    "build_interconnected",
    "section3_counterexample",
    "lemma1_scenario",
    "fifo_causality_violation",
    "scrambled_pram_violation",
    "small_bridge_scenario",
    "small_noread_scenario",
    "small_fifo_scenario",
]
