"""Unit tests for bridges and tree topologies."""

import gc
import hashlib

import pytest

from repro.checker import check_causal
from repro.errors import ConfigurationError, TopologyError
from repro.interconnect.bridge import connect
from repro.interconnect.topology import (
    chain_edges,
    interconnect,
    star_edges,
    validate_tree,
)
from repro.memory.program import Read, Sleep, Write
from repro.memory.recorder import HistoryRecorder
from repro.memory.system import DSMSystem
from repro.protocols import available, get
from repro.sim import rng as rng_mod
from repro.sim.channel import ReliableFifoChannel, UniformDelay
from repro.sim.core import Simulator
from repro.trace import dumps_history
from repro.workloads import WorkloadSpec, build_interconnected
from repro.workloads.scenarios import run_until_quiescent, small_bridge_scenario


def make_systems(count, recorder=None, sim=None):
    sim = sim or Simulator()
    recorder = recorder or HistoryRecorder()
    return sim, [
        DSMSystem(sim, f"S{index}", get("vector-causal"), recorder=recorder, seed=index)
        for index in range(count)
    ]


class TestEdgeShapes:
    def test_star_edges(self):
        assert star_edges(4) == [(0, 1), (0, 2), (0, 3)]
        assert star_edges(4, hub=2) == [(2, 0), (2, 1), (2, 3)]

    def test_star_bad_hub(self):
        with pytest.raises(TopologyError):
            star_edges(3, hub=5)

    def test_chain_edges(self):
        assert chain_edges(4) == [(0, 1), (1, 2), (2, 3)]
        assert chain_edges(1) == []


class TestValidateTree:
    def test_valid_tree(self):
        validate_tree(4, [(0, 1), (1, 2), (1, 3)])

    def test_cycle_rejected(self):
        with pytest.raises(TopologyError, match="cycle"):
            validate_tree(4, [(0, 1), (1, 2), (2, 0)])

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(TopologyError, match="exactly"):
            validate_tree(4, [(0, 1), (1, 2)])

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError, match="self-loop"):
            validate_tree(2, [(0, 0)])

    def test_disconnected_rejected(self):
        with pytest.raises(TopologyError, match="cycle|connect"):
            validate_tree(4, [(0, 1), (0, 1), (2, 3)])

    def test_unknown_system_rejected(self):
        with pytest.raises(TopologyError, match="unknown"):
            validate_tree(2, [(0, 7)])


class TestConnect:
    def test_different_simulators_rejected(self):
        _, [s0] = make_systems(1)
        _, [s1] = make_systems(1)
        with pytest.raises(ConfigurationError, match="simulator"):
            connect(s0, s1)

    def test_different_recorders_rejected(self):
        sim = Simulator()
        s0 = DSMSystem(sim, "S0", get("vector-causal"), recorder=HistoryRecorder())
        s1 = DSMSystem(sim, "S1", get("vector-causal"), recorder=HistoryRecorder())
        with pytest.raises(ConfigurationError, match="recorder"):
            connect(s0, s1)

    def test_self_connection_rejected(self):
        _, [s0] = make_systems(1)
        with pytest.raises(ConfigurationError, match="itself"):
            connect(s0, s0)


class TestBridgeStreams:
    """A reliable bridge link derives its rng from (seed, bridge name,
    direction) on the first draw; a link that never draws never seeds one."""

    SEED = 5
    #: Channel name -> direction label, as ``connect`` names the two links.
    DIRECTIONS = {"link:S0-S1:isp:S0->isp:S1": "ab", "link:S0-S1:isp:S1->isp:S0": "ba"}

    @pytest.mark.parametrize("use_pre_update", [False, True])
    def test_zero_delay_links_never_derive_a_stream(self, use_pre_update):
        result = small_bridge_scenario(use_pre_update=use_pre_update)
        run_until_quiescent(result.sim, result.systems)
        bridge = result.interconnection.bridges[0]
        assert bridge.messages_crossing > 0
        assert bridge.channel_ab._rng is None
        assert bridge.channel_ba._rng is None

    def _run(self, channel_factory=None):
        """Two bridged systems under a sampled delay: the pairs each
        IS-process received with their arrival times, the history digest,
        and the bridge."""
        sim = Simulator()
        recorder = HistoryRecorder()
        s0, s1 = (
            DSMSystem(sim, f"S{index}", get("vector-causal"), recorder=recorder, seed=index)
            for index in range(2)
        )
        for system, value in ((s0, "a"), (s1, "b")):
            writes = [Write("x", f"{value}{i}") for i in range(4)]
            system.add_application("W", [step for write in writes for step in (write, Sleep(0.5))])
            system.add_application("R", [Read("x"), Sleep(1.0)] * 6)
        bridge = connect(
            s0, s1, delay=UniformDelay(0.1, 3.0), seed=self.SEED, channel_factory=channel_factory
        )
        arrivals = []
        for isp in (bridge.isp_a, bridge.isp_b):
            def receive(sender, pair, isp=isp, inner=isp.receive):
                arrivals.append((sim.now, isp.name, sender, pair))
                inner(sender, pair)

            isp.receive = receive
        run_until_quiescent(sim, [s0, s1])
        digest = hashlib.sha256(dumps_history(recorder.history()).encode("utf-8")).hexdigest()
        return arrivals, digest, bridge

    def _eager_channel(self, sim, rng, name, **kwargs):
        """The oracle link: its stream is derived at construction, from
        the same labels, and the callable ``connect`` passed is unused."""
        stream = rng_mod.derive(self.SEED, "link:S0-S1", self.DIRECTIONS[name])
        return ReliableFifoChannel(sim, rng=stream, name=name, **kwargs)

    def test_sampled_delay_links_match_eagerly_derived_streams(self):
        lazy_arrivals, lazy_digest, lazy = self._run()
        eager_arrivals, eager_digest, eager = self._run(self._eager_channel)
        assert lazy_arrivals == eager_arrivals
        assert lazy_digest == eager_digest
        # Both directions carried pairs at sampled (non-grid) times.
        assert {isp for _, isp, _, _ in lazy_arrivals} == {"isp:S0", "isp:S1"}
        assert len({time % 0.5 for time, *_ in lazy_arrivals}) > 2
        for channel in (lazy.channel_ab, lazy.channel_ba, eager.channel_ab, eager.channel_ba):
            assert channel._rng is not None
        assert eager.channel_ab._make_rng is None and eager.channel_ba._make_rng is None
        assert lazy.channel_ab._rng.getstate() == eager.channel_ab._rng.getstate()
        assert lazy.channel_ba._rng.getstate() == eager.channel_ba._rng.getstate()


class TestInterconnect:
    def test_star_creates_m_minus_one_bridges(self):
        sim, systems = make_systems(5, recorder=HistoryRecorder())
        connection = interconnect(systems, topology="star")
        assert len(connection.bridges) == 4

    def test_shared_mode_one_isp_per_system(self):
        sim, systems = make_systems(4)
        interconnect(systems, topology="star", shared=True)
        # hub: apps(0) + 1 shared IS; leaves: 1 IS each.
        assert all(system.mcs_count == 1 for system in systems)

    def test_per_edge_mode_isp_per_link(self):
        sim, systems = make_systems(4)
        interconnect(systems, topology="star", shared=False)
        hub, *leaves = systems
        assert hub.mcs_count == 3  # one IS-attached MCS per link
        assert all(leaf.mcs_count == 1 for leaf in leaves)

    def test_single_system_no_bridges(self):
        sim, systems = make_systems(1)
        connection = interconnect(systems)
        assert connection.bridges == []

    def test_unknown_topology_rejected(self):
        sim, systems = make_systems(3)
        with pytest.raises(TopologyError, match="unknown topology"):
            interconnect(systems, topology="ring")

    def test_explicit_edges_validated(self):
        sim, systems = make_systems(3)
        with pytest.raises(TopologyError):
            interconnect(systems, edges=[(0, 1), (1, 2), (2, 0)])

    def test_counters(self):
        sim, systems = make_systems(3)
        recorder = systems[0].recorder
        for system in systems[1:]:
            system.recorder = recorder
        connection = interconnect(systems, topology="chain")
        systems[0].add_application("A", [Write("x", 1)])
        sim.run()
        assert connection.total_app_mcs == 1
        assert connection.inter_system_messages == 2  # both chain hops
        assert connection.intra_system_messages > 0


class TestSharedForwarding:
    def test_write_reaches_all_leaves_through_hub(self):
        sim = Simulator()
        recorder = HistoryRecorder()
        systems = [
            DSMSystem(sim, f"S{index}", get("vector-causal"), recorder=recorder, seed=index)
            for index in range(4)
        ]
        interconnect(systems, topology="star", shared=True)
        systems[1].add_application("A", [Write("x", 1)])
        probes = [systems[index].add_application("P", []) for index in (0, 2, 3)]
        sim.run()
        for probe in probes:
            assert probe.mcs.local_value("x") == 1

    def test_per_edge_mode_also_floods(self):
        sim = Simulator()
        recorder = HistoryRecorder()
        systems = [
            DSMSystem(sim, f"S{index}", get("vector-causal"), recorder=recorder, seed=index)
            for index in range(4)
        ]
        interconnect(systems, topology="chain", shared=False)
        systems[0].add_application("A", [Write("x", 1)])
        probe = systems[3].add_application("P", [])
        sim.run()
        assert probe.mcs.local_value("x") == 1


class TestRunLifetime:
    """The system owns its network and its MCS-processes. The edges back
    to them are weak: an MCS-process's network, an IS-process's
    MCS-process and the peer IS-process in a bridge channel's deliver
    callback. So a finished run that is never closed is freed by
    reference counting alone, with the cyclic collector off."""

    @pytest.mark.parametrize(
        "protocols",
        [[name, "vector-causal"] for name in available()] + [["vector-causal"] * 5],
        ids=lambda protocols: "+".join(sorted(set(protocols))) + f"x{len(protocols)}",
    )
    def test_unclosed_run_is_freed_by_reference_counting(self, protocols):
        def run_and_check():
            result = build_interconnected(
                protocols, WorkloadSpec(processes=4, ops_per_process=30), seed=0
            )
            run_until_quiescent(result.sim, result.systems)
            check_causal(result.global_history)

        gc.collect()
        gc.disable()
        try:
            run_and_check()
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_campaign_run_is_freed_by_reference_counting(self):
        # The resilience layer's hooks (transport wires, WAL and delivery
        # callbacks, the durable bridge's liveness probes) are weak too.
        from repro.resilience.campaign import run_campaign

        gc.collect()
        gc.disable()
        try:
            assert run_campaign("combined", seed=0).ok
            assert gc.collect() == 0
        finally:
            gc.enable()
