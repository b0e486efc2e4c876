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
* :class:`Cast` / :func:`build` — a scenario as data (systems, programs,
  links) and the one builder that assembles it: every scenario here but
  the random harness, and every entry of the explorer's catalogue.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Any, Iterator, Optional, Sequence, Union

from repro.errors import SimulationError
from repro.interconnect.is_process import ISProcess
from repro.interconnect.topology import Interconnection, interconnect
from repro.memory.history import History
from repro.memory.program import Command, Read, Sleep, Write
from repro.memory.recorder import HistoryRecorder
from repro.memory.system import DSMSystem
from repro.protocols import base as protocol_base
from repro.protocols.base import ProtocolSpec, get
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
        """Cut the simulator's cycles once the run is over (its pending
        events and the explorer's policy hold the components), so
        reference counting frees the run at once instead of the cyclic
        collector. A run that finished on its own needs no close: the
        components' back-edges (process to network, IS-process to
        MCS-process, bridge channel to peer) are weak. The counters and
        the recorded history stay readable; the run cannot be resumed.
        """
        self.sim.close()


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


@dataclass(frozen=True)
class Poll:
    """A :func:`poll_until` program as data: a generator can be neither
    rebuilt nor pickled, so a cast holds this and :func:`build` starts it."""

    var: str
    expected: Any
    then: tuple[Command, ...]
    poll_interval: float = 1.0
    max_polls: int = 200


@dataclass(frozen=True)
class App:
    """An application process of a cast; *program* is a tuple of
    commands or a :class:`Poll`."""

    name: str
    program: Union[tuple[Command, ...], Poll]
    start_delay: float = 0.0


@dataclass(frozen=True)
class Member:
    """A system of a cast: its protocol, default link delay, application
    processes and slower links, each as (from app, to app, delay)."""

    protocol: ProtocolSpec
    delay: float
    apps: tuple[App, ...]
    slow_links: tuple[tuple[str, str, float], ...] = ()


@dataclass(frozen=True)
class Cast:
    """A hand-written scenario as data. *delay* and the fields after it
    configure :func:`interconnect` when there are two or more systems."""

    systems: tuple[Member, ...]
    delay: float
    topology: str = "chain"
    shared: bool = True
    read_before_send: bool = True
    use_pre_update: Optional[bool] = None


def build(cast: Cast, seed: int = 0) -> ScenarioResult:
    """Assemble *cast* on a fresh simulator and recorder; does not run it.

    System *i* is named ``S{i}`` and seeded ``seed + i``, the bridges from
    *seed*. All systems are created first, then the processes in order."""
    sim = Simulator()
    recorder = HistoryRecorder()
    systems = [
        DSMSystem(sim, f"S{index}", member.protocol, recorder, seed=seed + index,
                  default_delay=member.delay)
        for index, member in enumerate(cast.systems)
    ]
    for system, member in zip(systems, cast.systems):
        apps = {}
        for app in member.apps:
            program = app.program
            if isinstance(program, Poll):
                program = poll_until(program.var, program.expected, program.then,
                                     program.poll_interval, program.max_polls)
            apps[app.name] = system.add_application(app.name, program,
                                                    start_delay=app.start_delay)
        for source, target, delay in member.slow_links:
            system.network.set_delay(apps[source].mcs.name, apps[target].mcs.name, delay)
    connection: Optional[Interconnection] = None
    if len(systems) > 1:
        connection = interconnect(
            systems, topology=cast.topology, delay=cast.delay, shared=cast.shared,
            read_before_send=cast.read_before_send, use_pre_update=cast.use_pre_update,
            seed=seed,
        )
    return ScenarioResult(sim=sim, systems=systems, interconnection=connection, recorder=recorder)


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
    writer = App("S0/writer", (Sleep(1.0), Write("x", "v")))
    reader = App("S0/reader", (Read("x"), Sleep(3.0)) * 18, start_delay=5.0)
    # The writer's updates reach the distant reader very late.
    s0 = Member(get("precise-causal"), 1.0, (writer, reader), (("S0/writer", "S0/reader", 40.0),))
    overwriter = App("S1/overwriter", Poll("x", "v", (Write("x", "u"),)))
    s1 = Member(get("vector-causal"), 1.0, (overwriter,))
    return build(Cast((s0, s1), delay=1.0, read_before_send=read_before_send), seed)


def lemma1_scenario(use_pre_update: bool, lag_seed: int = 0, seed: int = 0) -> ScenarioResult:
    """Property 1 / Lemma 1 (experiment E9).

    S0 runs the delayed-apply protocol (no Causal Updating): causally
    ordered writes ``w(x)v -> w(y)u`` may hit the IS replica inverted.
    Under IS-protocol 1 (``use_pre_update=False``) the inversion leaks to
    S1 whose reader sees ``u`` without ``v``; under IS-protocol 2 the
    pre-update reads force causal application order and S^T stays causal.
    """
    delayed = get("delayed-causal").with_options(max_lag=6.0, lag_seed=lag_seed)
    s0 = Member(delayed, 1.0, (
        App("S0/writerA", (Sleep(1.0), Write("x", "v"))),
        App("S0/writerB", Poll("x", "v", (Write("y", "u"),), poll_interval=0.5)),
    ))
    observer = Poll("y", "u", (Read("x"),), poll_interval=0.5, max_polls=120)
    s1 = Member(get("vector-causal"), 1.0, (App("S1/observer", observer),))
    return build(Cast((s0, s1), delay=0.5, use_pre_update=use_pre_update), seed)


def fifo_causality_violation(seed: int = 0) -> ScenarioResult:
    """Deterministic causality violation of the FIFO-apply protocol.

    The classic transitive race: A writes ``x``, B reads it and writes
    ``y``, C (far from A) sees ``y`` before ``x``. PRAM holds — each
    process's writes are seen in order — but causality does not, which is
    what separates the two checkers in the negative-control tests.
    """
    system = Member(get("fifo-apply"), 1.0, (
        App("A", (Sleep(1.0), Write("x", "1"))),
        App("B", Poll("x", "1", (Write("y", "2"),), poll_interval=0.5)),
        App("C", Poll("y", "2", (Read("x"),), poll_interval=0.5, max_polls=100)),
    ), slow_links=(("A", "C", 50.0),))
    return build(Cast((system,), delay=1.0), seed)


def scrambled_pram_violation(lag_seed: int = 2, seed: int = 0) -> ScenarioResult:
    """A PRAM violation of the scrambled-apply protocol.

    A writes ``x`` twice in program order; the scrambled lags can apply
    the two updates inverted at the observer's replica, whose successive
    reads then see the writes out of the writer's program order. Whether
    the inversion happens depends on *lag_seed*; seed 2 exhibits it.
    """
    scrambled = get("scrambled-apply").with_options(max_lag=8.0, lag_seed=lag_seed)
    system = Member(scrambled, 1.0, (
        App("A", (Sleep(1.0), Write("x", "1"), Write("x", "2"))),
        App("C", (Read("x"), Sleep(1.0)) * 12),
    ))
    return build(Cast((system,), delay=1.0), seed)


# The explorer's casts (:mod:`repro.explore.scenarios`) are module constants:
# the explorer rebuilds its scenario for every run, and a cast constructed
# per call would add its own cost to each rebuild.

_VECTOR = get("vector-causal")
_READ_TWICE = (Read("x"), Read("x"))
SMALL_BRIDGE_P1 = Cast((
    Member(_VECTOR, 0.0, (App("S0/p0", (Write("x", "a"),)), App("S0/p1", _READ_TWICE))),
    Member(_VECTOR, 0.0, (App("S1/q0", (Write("x", "c"),)), App("S1/q1", _READ_TWICE))),
), delay=0.0, use_pre_update=False)
SMALL_BRIDGE_P2 = replace(SMALL_BRIDGE_P1, use_pre_update=True)


def small_bridge_scenario(use_pre_update: bool, seed: int = 0) -> ScenarioResult:
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
    return build(SMALL_BRIDGE_P2 if use_pre_update else SMALL_BRIDGE_P1, seed)


# No Sleep separates the reads: the driver's zero think-time wakeup
# between operations is already a scheduling point the explorer can defer.
SMALL_NOREAD = Cast((
    Member(get("precise-causal"), 0.0, (
        App("S0/writer", (Write("x", "v"),)), App("S0/reader", _READ_TWICE),
    )),
    Member(_VECTOR, 0.0, (
        App("S1/overwriter", Poll("x", "v", (Write("x", "u"),), poll_interval=0.0, max_polls=3)),
    )),
), delay=0.0, read_before_send=False)
SMALL_NOREAD_CONTROL = replace(SMALL_NOREAD, read_before_send=True)


def small_noread_scenario(read_before_send: bool, seed: int = 0) -> ScenarioResult:
    """Zero-delay rendering of the §3 no-read ablation.

    Same cast as :func:`section3_counterexample` — a precise-causal S0
    whose value is overwritten in S1 and propagated back — but with all
    delays zero, so reaching the violation is purely a matter of event
    *ordering*: the explorer must deliver the IS-process's untethered
    ``u``-write to the reader before the writer's own ``v``-update.
    With ``read_before_send=True`` the IS read tethers ``u`` to ``v``
    and no interleaving can invert them.
    """
    return build(SMALL_NOREAD_CONTROL if read_before_send else SMALL_NOREAD, seed)


@functools.cache
def _small_fifo(max_polls: int) -> Cast:
    return Cast((Member(get("fifo-apply"), 0.0, (
        App("A", (Write("x", "1"),)),
        App("B", Poll("x", "1", (Write("y", "2"),), poll_interval=0.0, max_polls=max_polls)),
        App("C", Poll("y", "2", (Read("x"),), poll_interval=0.0, max_polls=max_polls)),
    )),), delay=0.0)


SMALL_FIFO = _small_fifo(6)


def small_fifo_scenario(seed: int = 0, max_polls: int = 6) -> ScenarioResult:
    """Zero-delay rendering of the fifo-apply transitive race.

    A writes ``x``, B reads it and writes ``y``, C may apply the two
    (sender-FIFO but causally unordered) updates inverted. The original
    :func:`fifo_causality_violation` forces the inversion with a 50-unit
    link delay; here every delivery is at t=0 and the explorer has to
    *choose* the inverted application order at C's replica.
    """
    return build(_small_fifo(max_polls), seed)


__all__ = [
    "ScenarioResult",
    "run_until_quiescent",
    "poll_until",
    "Cast",
    "Member",
    "App",
    "Poll",
    "build",
    "build_interconnected",
    "section3_counterexample",
    "lemma1_scenario",
    "fifo_causality_violation",
    "scrambled_pram_violation",
    "small_bridge_scenario",
    "small_noread_scenario",
    "small_fifo_scenario",
]
