"""Unit tests for traffic, latency, and response-time metrics."""

from repro.memory.program import Read, Sleep, Write
from repro.memory.recorder import HistoryRecorder
from repro.memory.system import DSMSystem
from repro.obs.instruments import combine, observe
from repro.obs.tracer import ListSink, Tracer
from repro.metrics import (
    ResponseStats,
    TrafficMeter,
    VisibilityTracker,
    messages_per_write,
    response_stats,
)
from repro.protocols import get
from repro.sim.core import Simulator


def make_system(segments=None, **kwargs):
    sim = Simulator()
    recorder = HistoryRecorder()
    system = DSMSystem(sim, "S", get("vector-causal"), recorder=recorder, **kwargs)
    return sim, recorder, system


class TestTrafficMeter:
    def test_counts_by_kind_and_network(self):
        sim, _, system = make_system()
        meter = TrafficMeter().attach(system.network)
        system.add_application("A", [Write("x", 1)])
        system.add_application("B", [])
        sim.run()
        assert meter.total == 1
        assert meter.by_network["S"] == 1
        assert meter.by_kind["CausalUpdate"] == 1

    def test_cross_segment_counting(self):
        sim, _, system = make_system()
        meter = TrafficMeter().attach(system.network)
        system.add_application("A", [Write("x", 1)], segment="lan0")
        system.add_application("B", [], segment="lan0")
        system.add_application("C", [], segment="lan1")
        system.add_application("D", [], segment="lan1")
        sim.run()
        assert meter.total == 3
        assert meter.cross_segment == 2  # C and D are on the far segment
        assert meter.crossings("lan0", "lan1") == 2

    def test_per_write_average(self):
        meter = TrafficMeter()
        meter.total = 10
        assert meter.per_write(5) == 2.0
        assert meter.per_write(0) == 0.0

    def test_messages_per_write_helper(self):
        sim, _, system = make_system()
        system.add_application("A", [Write("x", 1), Write("y", 2)])
        system.add_application("B", [])
        system.add_application("C", [])
        sim.run()
        assert messages_per_write([system.network], 2) == 2.0


class TestVisibilityTracker:
    def test_tracks_apply_times(self):
        sim, _, system = make_system(default_delay=3.0)
        tracker = VisibilityTracker()
        system.add_application("A", [Write("x", 1)])
        system.add_application("B", [])
        tracker.attach_systems([system])
        sim.run()
        records = tracker.fully_visible()
        assert len(records) == 1
        record = records[0]
        assert record.replica_count() == 2
        assert record.latency == 3.0  # one network hop

    def test_partial_visibility_excluded(self):
        sim, _, system = make_system(default_delay=3.0)
        tracker = VisibilityTracker()
        system.add_application("A", [Write("x", 1)])
        system.add_application("B", [])
        tracker.attach_systems([system])
        sim.run(until=1.0)
        assert tracker.fully_visible() == []
        assert len(tracker.records) == 1

    def test_worst_and_mean_latency(self):
        sim, _, system = make_system(default_delay=2.0)
        tracker = VisibilityTracker()
        system.add_application("A", [Write("x", 1), Write("y", 2)])
        system.add_application("B", [])
        tracker.attach_systems([system])
        sim.run()
        assert tracker.worst_latency() == 2.0
        assert tracker.mean_latency() == 2.0

    def test_empty_tracker(self):
        tracker = VisibilityTracker()
        assert tracker.worst_latency() == 0.0
        assert tracker.mean_latency() == 0.0

    def test_tees_beside_an_existing_tracer(self):
        sink = ListSink()
        sim = Simulator(instruments=combine(Tracer(sink), None))
        system = DSMSystem(sim, "S", get("vector-causal"), default_delay=3.0)
        system.add_application("A", [Write("x", 1)])
        system.add_application("B", [])
        tracker = VisibilityTracker().attach_systems([system])
        meter = TrafficMeter().attach(system.network)
        counter = observe(sim, ListSink())
        sim.run()
        # The existing sink keeps seeing every event; each added sink
        # sees the same stream from the moment it was added (after the
        # build-time mcs.built events).
        assert [id(each) for each in sim.tracer.sink.sinks] == [
            id(sink), id(tracker), id(meter), id(counter)
        ]
        assert counter.events == [e for e in sink.events if e.kind != "mcs.built"]
        assert {"net.send", "replica.apply"} <= {event.kind for event in sink.events}
        assert tracker.worst_latency() == 3.0
        assert meter.total == 1

    def test_observing_twice_is_a_no_op(self):
        sim, _, system = make_system()
        tracker = VisibilityTracker().attach_systems([system, system])
        observe(sim, tracker)
        assert sim.tracer.sink is tracker


class TestSharedSimulator:
    """Two systems on one simulator: each reducer counts only what it
    attached to."""

    def build(self):
        sim = Simulator()
        recorder = HistoryRecorder()
        systems = [
            DSMSystem(sim, name, get("vector-causal"), recorder=recorder, default_delay=delay)
            for name, delay in (("S0", 1.0), ("S1", 4.0))
        ]
        systems[0].add_application("A", [Write("x", 1), Write("y", 2)])
        systems[0].add_application("B", [])
        systems[1].add_application("C", [Write("z", 3)])
        systems[1].add_application("D", [])
        systems[1].add_application("E", [])
        return sim, systems

    def test_meter_counts_only_its_network(self):
        sim, systems = self.build()
        first = TrafficMeter().attach(systems[0].network)
        second = TrafficMeter().attach(systems[1].network)
        both = TrafficMeter().attach(*(system.network for system in systems))
        sim.run()
        assert first.total == systems[0].network.messages_sent == 2
        assert second.total == systems[1].network.messages_sent == 2
        assert both.total == 4
        assert dict(first.by_network) == {"S0": 2}
        assert dict(both.by_network) == {"S0": 2, "S1": 2}

    def test_tracker_counts_only_its_system(self):
        sim, systems = self.build()
        tracker = VisibilityTracker().attach_systems([systems[1]])
        sim.run()
        assert [(record.var, record.replica_count()) for record in tracker.records] == [
            ("z", 3)
        ]
        assert tracker.worst_latency() == 4.0


class TestResponseStats:
    def test_from_samples(self):
        stats = ResponseStats.from_samples([1.0, 2.0, 3.0])
        assert stats.count == 3
        assert stats.mean == 2.0
        assert stats.maximum == 3.0

    def test_empty_samples(self):
        stats = ResponseStats.from_samples([])
        assert stats.count == 0 and stats.mean == 0.0

    def test_aggregates_across_systems(self):
        sim, _, system = make_system()
        system.add_application("A", [Write("x", 1), Read("x")])
        system.add_application("B", [Read("x")])
        sim.run()
        stats = response_stats([system])
        assert stats.count == 3
        assert stats.mean == 0.0  # vector protocol ops are local

    def test_read_off_the_history_in_program_order(self):
        sim = Simulator()
        recorder = HistoryRecorder()
        systems = [
            DSMSystem(sim, name, get("lamport-sequential"), recorder=recorder, seed=index)
            for index, name in enumerate(("S0", "S1"))
        ]
        for system in systems:
            system.add_application(f"{system.name}a", [Write("x", 1), Read("x")])
            system.add_application(f"{system.name}b", [Write("y", 2)])
        sim.run()
        history = recorder.history()
        samples = [
            op.response_time - op.issue_time
            for proc in ("S0a", "S0b", "S1a", "S1b")
            for op in history.of_process(proc)
        ]
        assert max(samples) > 0.0  # writes wait for their total-order slot
        assert response_stats(systems) == ResponseStats.from_samples(samples)
        assert response_stats(systems[1:]) == ResponseStats.from_samples(samples[3:])
