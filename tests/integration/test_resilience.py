"""Integration tests for the resilience layer: a resilient bridge under
faults, mid-run IS-process crash + WAL recovery, and the scenario
catalogue, all verified by the causal checker on the global history."""

import pytest

from repro.checker import check_causal
from repro.checker.theorem1 import verify_theorem1_construction
from repro.errors import CheckerError, ConfigurationError
from repro.interconnect.bridge import connect
from repro.memory.recorder import HistoryRecorder
from repro.memory.system import DSMSystem
from repro.protocols import base as protocol_base
from repro.resilience.campaign import SCENARIOS, run_campaign
from repro.resilience.transport import RetryPolicy
from repro.sim.channel import FaultPlan
from repro.sim.core import Simulator
from repro.workloads.generator import WorkloadSpec, populate_system
from repro.workloads.scenarios import run_until_quiescent
from repro.workloads.values import ValueFactory


def build_pair(protocols=("vector-causal", "vector-causal"), seed=0, **connect_kwargs):
    sim = Simulator()
    recorder = HistoryRecorder()
    values = ValueFactory()
    spec = WorkloadSpec(
        processes=3, ops_per_process=8, write_ratio=0.6, max_think=4.0, max_stagger=10.0
    )
    systems = []
    for index, name in enumerate(protocols):
        system = DSMSystem(
            sim, name=f"S{index}", protocol=protocol_base.get(name),
            recorder=recorder, seed=seed + index, default_delay=1.0,
        )
        populate_system(system, spec, values=values, seed=seed + 100 * index)
        systems.append(system)
    bridge = connect(systems[0], systems[1], delay=1.0, seed=seed, **connect_kwargs)
    return sim, systems, recorder, bridge


class TestResilientBridge:
    def test_clean_resilient_bridge_matches_reliable_semantics(self):
        sim, systems, recorder, bridge = build_pair(transport="resilient")
        run_until_quiescent(sim, systems)
        assert check_causal(recorder.history().without_interconnect()).ok
        assert bridge.channel_ab.wire.retransmissions == 0
        assert bridge.channel_ba.wire.retransmissions == 0

    def test_lossy_wire_stays_causal(self):
        sim, systems, recorder, bridge = build_pair(
            transport="resilient",
            faults=FaultPlan(
                drop_probability=0.3,
                duplicate_probability=0.2,
                reorder_probability=0.2,
                reorder_spread=5.0,
            ),
        )
        run_until_quiescent(sim, systems)
        full = recorder.history()
        assert check_causal(full.without_interconnect()).ok
        # The wire really misbehaved; the session layer really worked.
        lost = bridge.channel_ab.frames_lost_on_wire + bridge.channel_ba.frames_lost_on_wire
        assert lost > 0
        assert bridge.isp_a.duplicates_dropped + bridge.isp_b.duplicates_dropped == 0

    def test_loss_costs_retransmissions_and_delay_not_causality(self):
        # A tight timer, so that the runs show steady-state ARQ rather
        # than backoff tails.
        retry = RetryPolicy(base_timeout=3.0, multiplier=2.0, max_timeout=24.0, jitter=0.25)
        rows = []
        for drop_rate in (0.0, 0.05, 0.20):
            faults = FaultPlan(drop_probability=drop_rate) if drop_rate else None
            sim, systems, recorder, bridge = build_pair(
                transport="resilient", faults=faults, retry=retry
            )
            run_until_quiescent(sim, systems)
            assert check_causal(recorder.history().without_interconnect()).ok
            channels = (bridge.channel_ab, bridge.channel_ba)
            delivered = sum(channel.stats.messages_delivered for channel in channels)
            rows.append((
                sum(channel.wire.retransmissions for channel in channels),
                sum(channel.stats.total_delay for channel in channels) / delivered,
            ))
        (clean_retransmissions, clean_delay), _, (lossy_retransmissions, lossy_delay) = rows
        assert clean_retransmissions == 0 < lossy_retransmissions
        assert lossy_delay >= clean_delay

    def test_mid_run_crash_and_recovery_yields_causal_history(self):
        """The ISSUE's acceptance test: an IS-process dies mid-run, comes
        back from its WAL, and the global history is still causal with
        every propagated pair applied at most once per system."""
        sim, systems, recorder, bridge = build_pair(
            transport="resilient", durability="wal",
            faults=FaultPlan(drop_probability=0.15, duplicate_probability=0.1),
        )
        sim.schedule_at(10.0, bridge.isp_a.crash)
        sim.schedule_at(22.0, bridge.isp_a.recover)
        run_until_quiescent(sim, systems)
        assert bridge.isp_a.crashes == 1 and bridge.isp_a.recoveries == 1
        assert bridge.isp_a.alive
        full = recorder.history()
        assert check_causal(full.without_interconnect()).ok
        # Exactly-once Propagate_in: no IS-process wrote a value twice.
        for isp in (bridge.isp_a, bridge.isp_b):
            written = [
                (op.var, op.value)
                for op in full
                if op.is_interconnect and op.proc == isp.name and op.kind.name == "WRITE"
            ]
            assert len(written) == len(set(written))

    def test_theorem1_construction_survives_crash_recovery(self):
        sim, systems, recorder, bridge = build_pair(
            transport="resilient", durability="wal",
        )
        sim.schedule_at(8.0, bridge.isp_b.crash)
        sim.schedule_at(20.0, bridge.isp_b.recover)
        run_until_quiescent(sim, systems)
        full = recorder.history()
        for proc in sorted({op.proc for op in full if not op.is_interconnect}):
            verify_theorem1_construction(full, proc)


class TestConfigurationGuards:
    def test_adversarial_faults_need_resilient_transport(self):
        with pytest.raises(ConfigurationError):
            build_pair(faults=FaultPlan(drop_probability=0.5))

    def test_benign_faults_allowed_on_reliable_transport(self):
        sim, systems, recorder, _ = build_pair(faults=FaultPlan())
        run_until_quiescent(sim, systems)
        assert check_causal(recorder.history().without_interconnect()).ok

    def test_durability_needs_resilient_transport(self):
        with pytest.raises(ConfigurationError):
            build_pair(durability="wal")

    def test_unknown_transport_and_durability_rejected(self):
        with pytest.raises(ConfigurationError):
            build_pair(transport="carrier-pigeon")
        with pytest.raises(ConfigurationError):
            build_pair(transport="resilient", durability="s3")


class TestCampaigns:
    def test_scenario_catalogue_is_complete(self):
        assert set(SCENARIOS) == {
            "baseline",
            "lossy-link",
            "flapping-partition",
            "is-crash-storm",
            "combined",
        }

    def test_combined_campaign_passes(self):
        """The headline acceptance criterion: lossy + flapping link with
        crashes on both sides, and the checker still says causal."""
        result = run_campaign("combined")
        assert result.ok, result.summary()
        assert result.crashes == 2 and result.recoveries == 2
        assert result.retransmissions > 0
        assert result.frames_lost_on_wire > 0

    def test_crash_storm_campaign_passes(self):
        result = run_campaign("is-crash-storm")
        assert result.ok, result.summary()
        assert result.crashes == 4 and result.recoveries == 4

    def test_baseline_campaign_has_no_retransmissions(self):
        result = run_campaign("baseline", check_theorem1=False)
        assert result.ok
        assert result.retransmissions == 0
        assert result.retransmit_overhead == 0.0

    def test_campaign_works_across_protocols(self):
        """IS-protocol 2 (non-causal-updating side) under the lossy link."""
        result = run_campaign(
            "lossy-link",
            protocols=("vector-causal", "delayed-causal"),
            check_theorem1=False,
        )
        assert result.ok, result.summary()

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError):
            run_campaign("meteor-strike")

    def test_repeated_campaigns_in_one_process_replay_exactly(self):
        """The link rng is seeded from the bridge name, so the name must
        not depend on how many bridges the process built before."""

        def wire_counters():
            result = run_campaign("combined", seed=0, check_theorem1=False)
            return (
                result.finish_time,
                result.data_frames_sent,
                result.retransmissions,
                result.frames_lost_on_wire,
                result.acks_sent,
            )

        first = wire_counters()
        assert wire_counters() == first
        assert wire_counters() == first
