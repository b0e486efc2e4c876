"""E11: the IS channel need not be available all the time (§1.1).

Updates queue while the link is down, propagate when it comes back, and
the interconnected system remains causal throughout."""

from repro.checker import check_causal
from repro.experiments import dialup_run
from repro.interconnect.topology import interconnect
from repro.memory.program import Read, Sleep, Write
from repro.memory.recorder import HistoryRecorder
from repro.memory.system import DSMSystem
from repro.protocols import get
from repro.sim.channel import PeriodicAvailability, UpWindows
from repro.sim.core import Simulator
from repro.workloads import WorkloadSpec, populate_system
from repro.workloads.scenarios import run_until_quiescent


def build_dialup(availability, seed=0, spec=None):
    sim = Simulator()
    recorder = HistoryRecorder()
    systems = [
        DSMSystem(sim, f"S{index}", get("vector-causal"), recorder=recorder, seed=seed + index)
        for index in range(2)
    ]
    for index, system in enumerate(systems):
        populate_system(
            system,
            spec or WorkloadSpec(processes=2, ops_per_process=4, write_ratio=0.7),
            seed=seed + 50 * index,
        )
    connection = interconnect(systems, availability=availability, delay=1.0, seed=seed)
    return sim, recorder, systems, connection


class TestDialupLink:
    def test_updates_survive_downtime(self):
        # Link is only up 10% of every 200 time units; workloads finish
        # long before the first up window ends.
        availability = PeriodicAvailability(period=200.0, up_fraction=0.1)
        sim, recorder, systems, connection = build_dialup(availability)
        run_until_quiescent(sim, systems)
        bridge = connection.bridges[0]
        assert bridge.pairs_a_to_b + bridge.pairs_b_to_a > 0
        assert check_causal(recorder.history().without_interconnect()).ok

    def test_burst_delivered_in_order_after_reconnect(self):
        availability = UpWindows(windows=((0.0, 0.5),))  # down until t=0.5... up after
        availability = PeriodicAvailability(period=1000.0, up_fraction=0.001)
        sim = Simulator()
        recorder = HistoryRecorder()
        s0 = DSMSystem(sim, "S0", get("vector-causal"), recorder=recorder)
        s1 = DSMSystem(sim, "S1", get("vector-causal"), recorder=recorder)
        s0.add_application(
            "A", [Write("x", 1), Sleep(5.0), Write("x", 2), Sleep(5.0), Write("x", 3)]
        )
        reader = s1.add_application("B", [Sleep(1500.0), Read("x")])
        interconnect([s0, s1], availability=availability, delay=1.0)
        run_until_quiescent(sim, [s0, s1])
        # All three writes crossed after t=1000 and applied in order.
        assert reader.mcs.local_value("x") == 3
        history = recorder.history()
        assert check_causal(history.without_interconnect()).ok
        read = history.of_process("B")[-1]
        assert read.value == 3

    def test_latency_grows_but_causality_holds(self):
        for period in (50.0, 400.0):
            availability = PeriodicAvailability(period=period, up_fraction=0.05)
            sim, recorder, systems, _ = build_dialup(availability, seed=int(period))
            run_until_quiescent(sim, systems)
            assert check_causal(recorder.history().without_interconnect()).ok

    def test_quiescence_time_reflects_downtime(self):
        always_up_sim, _, systems_up, _ = build_dialup(None, seed=1)
        run_until_quiescent(always_up_sim, systems_up)
        dialup_sim, _, systems_down, _ = build_dialup(
            PeriodicAvailability(period=500.0, up_fraction=0.01), seed=1
        )
        run_until_quiescent(dialup_sim, systems_down)
        assert dialup_sim.now > always_up_sim.now

    def test_half_percent_duty_cycle_costs_only_latency(self):
        # E11's table stops at 2%; at 0.5% the pairs still queue longer
        # and wait longer than on an always-up link, and stay causal.
        _, max_queue, mean_delay, causal = dialup_run(400.0, 0.005)
        _, always_queue, always_delay, always_causal = dialup_run(1.0, 1.0)
        assert causal and always_causal
        assert max_queue > always_queue
        assert mean_delay > always_delay
