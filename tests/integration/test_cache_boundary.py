"""The boundary of Theorem 1's hypothesis: cache consistency is not causal.

The theorem requires each subsystem to be *causal*. The parametrized
protocol's cache mode is sequential per variable but enforces no
cross-variable ordering — so a single cache system can already violate
causality, and bridging cache systems inherits the violation. This pins,
deterministically, why the paper's hypothesis is what it is.
"""

import pytest

from repro.checker import check_cache, check_causal
from repro.interconnect.topology import interconnect
from repro.memory.program import Command, Read, Sleep, Write
from repro.memory.recorder import HistoryRecorder
from repro.memory.system import DSMSystem
from repro.protocols import get
from repro.sim.core import Simulator
from repro.workloads.scenarios import run_until_quiescent


def build_cache_race(bridged=False):
    """Writer A writes var1 then var2 (different owners); observer C sits
    behind a slow link to var1's owner, so var2's update overtakes var1's."""
    sim = Simulator()
    recorder = HistoryRecorder()
    system = DSMSystem(sim, "S0", get("parametrized-cache"), recorder=recorder, seed=0)
    writer = system.add_application("A", [])  # program set below
    system.add_application("B", [])
    system.add_application("B2", [])  # second candidate owner
    observer_program: list[Command] = []
    observer = system.add_application("C", observer_program)

    systems = [system]
    peer = None
    if bridged:
        # Bridge FIRST: the IS-attached MCS node joins the owner
        # rotation, so variable placement must be computed afterwards.
        peer = DSMSystem(sim, "S1", get("vector-causal"), recorder=recorder, seed=1)
        interconnect([system, peer], delay=1.0)
        systems.append(peer)

    # Find two variables with distinct (non-writer, non-observer,
    # non-IS) owners.
    candidates = [f"v{index}" for index in range(40)]
    owners = {var: writer.mcs._sequencer_of(var) for var in candidates}
    excluded = {observer.mcs.name, writer.mcs.name}
    var1 = next(
        var for var in candidates
        if owners[var] not in excluded and "~isp" not in owners[var]
    )
    var2 = next(
        var for var in candidates
        if owners[var] not in excluded | {owners[var1]} and "~isp" not in owners[var]
    )
    # var1's owner is far from the observer: its broadcast arrives late.
    system.network.set_delay(owners[var1], observer.mcs.name, 50.0)

    writer._program = writer._as_generator([Sleep(1.0), Write(var1, "first"), Write(var2, "second")])

    def observe():
        for _ in range(100):
            seen = yield Read(var2)
            if seen == "second":
                yield Read(var1)
                return
            yield Sleep(0.5)

    observer._program = observer._as_generator(observe())

    if peer is not None:
        peer.add_application("D", [Sleep(5.0), Read(var2)])
    return sim, recorder, systems, (var1, var2)


class TestCacheBoundary:
    def test_single_cache_system_violates_causality(self):
        sim, recorder, systems, (var1, var2) = build_cache_race()
        run_until_quiescent(sim, systems)
        history = recorder.history()
        observed = [
            (op.var, op.value) for op in history.of_process("C") if op.is_read
        ]
        assert (var1, None) in observed  # saw var2's value, missed var1's
        verdict = check_causal(history)
        assert not verdict.ok

    def test_but_it_is_cache_consistent(self):
        sim, recorder, systems, _ = build_cache_race()
        run_until_quiescent(sim, systems)
        assert check_cache(recorder.history()).ok

    def test_bridging_does_not_repair_it(self):
        # Theorem 1 concludes nothing here: its hypothesis (each system
        # causal) fails, and indeed the union is not causal either.
        sim, recorder, systems, _ = build_cache_race(bridged=True)
        run_until_quiescent(sim, systems)
        assert not check_causal(recorder.history().without_interconnect()).ok

    def test_cache_protocol_metadata_warns(self):
        assert get("parametrized-cache").consistency == "cache"
        assert not get("parametrized-cache").causal_updating
