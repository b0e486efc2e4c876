"""Unit tests for the metrics registry and the instrumented counters."""

import collections

import pytest

from repro.interconnect.bridge import connect
from repro.memory.program import Read, Write
from repro.memory.recorder import HistoryRecorder
from repro.memory.system import DSMSystem
from repro.obs import ListSink, Tracer, combine
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.protocols import get
from repro.resilience.campaign import SCENARIOS, run_campaign
from repro.sim.core import Simulator
from repro.workloads import WorkloadSpec, build_interconnected
from repro.workloads.scenarios import run_until_quiescent


class TestInstruments:
    def test_counter_accumulates_and_rejects_negative(self):
        counter = Counter("c", ())
        counter.inc()
        counter.inc(2)
        assert counter.value == 3
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge("g", ())
        gauge.set(5.0)
        gauge.dec(2.0)
        gauge.inc()
        assert gauge.value == 4.0

    def test_histogram_buckets_and_stats(self):
        histogram = Histogram("h", (), buckets=(1.0, 10.0))
        for value in (0.5, 2.0, 3.0, 50.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == 55.5
        assert histogram.min == 0.5
        assert histogram.max == 50.0
        assert histogram.bucket_counts == [1, 2, 1]

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", (), buckets=(10.0, 1.0))


class TestRegistry:
    def test_same_labels_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("m", a="1") is registry.counter("m", a="1")
        assert registry.counter("m", a="1") is not registry.counter("m", a="2")

    def test_name_reuse_across_types_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(TypeError):
            registry.gauge("m")

    def test_total_sums_across_labels(self):
        registry = MetricsRegistry()
        registry.counter("m", a="1").inc(2)
        registry.counter("m", a="2").inc(3)
        assert registry.total("m") == 5

    def test_render_and_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("zz").inc()
        registry.counter("aa", x="1").inc(2)
        rendered = registry.render()
        assert rendered.index("aa") < rendered.index("zz")
        assert 'aa{x="1"} 2' in rendered
        snapshot = registry.snapshot()
        assert snapshot['aa{x="1"}'] == 2


class TestHandCountedScenario:
    """Pin the instrumented counters against quantities countable by hand
    (and against the §6 closed form: x - 1 messages per write for the
    vector protocol, zero per read)."""

    def _run(self, protocols, **spec_kwargs):
        registry = MetricsRegistry()
        result = build_interconnected(
            protocols,
            WorkloadSpec(**spec_kwargs),
            seed=5,
            metrics=registry,
        )
        run_until_quiescent(result.sim, result.systems)
        return result, registry

    def test_flat_system_counts(self):
        result, registry = self._run(
            ["vector-causal"], processes=3, ops_per_process=4, write_ratio=1.0
        )
        writes = 3 * 4
        # Flat n=3 system, all writes: each write broadcasts to n-1 peers.
        assert registry.total("net_messages_total") == writes * 2
        assert registry.total("ops_completed_total") == writes
        assert registry.total("mcs_processes_built_total") == 3
        # Per-channel totals sum to the network total.
        per_channel = sum(
            instrument.value
            for instrument in registry
            if instrument.name == "channel_messages_total"
        )
        assert per_channel == writes * 2

    def test_bridge_counts_match_interconnection(self):
        result, registry = self._run(
            ["vector-causal", "vector-causal"],
            processes=2,
            ops_per_process=4,
            write_ratio=0.5,
        )
        interconnection = result.interconnection
        assert registry.total("net_messages_total") == interconnection.intra_system_messages
        assert registry.total("is_pairs_sent_total") == interconnection.inter_system_messages
        assert (
            registry.total("is_pairs_received_total")
            == interconnection.inter_system_messages
        )
        assert registry.total("bridges_total") == len(interconnection.bridges)
        assert registry.total("ops_completed_total") == len(result.global_history)

    def test_messages_per_write_matches_section6_model(self):
        from repro.analysis.model import interconnected_messages_per_write

        result, registry = self._run(
            ["vector-causal", "vector-causal"],
            processes=2,
            ops_per_process=3,
            write_ratio=1.0,
        )
        writes = 2 * 2 * 3
        total = registry.total("net_messages_total") + registry.total(
            "is_pairs_sent_total"
        )
        predicted = interconnected_messages_per_write(
            result.interconnection.total_app_mcs, 2, shared=True
        )
        assert total == writes * predicted

    def test_sim_events_counted(self):
        result, registry = self._run(
            ["vector-causal"], processes=2, ops_per_process=2, write_ratio=1.0
        )
        assert registry.total("sim_events_total") == result.sim.events_processed


def naive_recount(events):
    """Recount the hook counter families from a recorded event stream,
    one event at a time, keyed as ``snapshot()`` keys them. Written
    without the registry's event table, as an oracle for it."""
    counts = collections.Counter()

    def bump(name, **labels):
        inner = ",".join(f'{key}="{value}"' for key, value in sorted(labels.items()))
        counts[f"{name}{{{inner}}}" if labels else name] += 1

    for event in events:
        args = dict(event.args)
        if event.kind == "msg.send":
            bump("channel_messages_total", channel=args["channel"])
        elif event.kind == "msg.drop":
            bump("channel_frames_dropped_total", channel=args["channel"])
        elif event.kind == "net.send":
            bump("net_messages_total", network=args["network"])
            if args["src_segment"] != args["dst_segment"]:
                bump("bottleneck_crossings_total", network=args["network"])
        elif event.kind == "mcs.built":
            bump("mcs_processes_built_total", protocol=args["protocol"])
        elif event.kind == "is.pair_send":
            bump("is_pairs_sent_total", link=args["link"])
        elif event.kind == "is.pair_recv":
            bump("is_pairs_received_total", link=args["link"])
        elif event.kind == "op":
            bump("ops_completed_total", system=event.system, kind=args["op"])
        elif event.kind == "bridge.connect":
            bump("bridges_total")
        elif event.kind == "retransmit":
            bump("retransmits_total", link=event.component)
        elif event.kind == "is.crash":
            bump("is_crashes_total", process=event.component)
        elif event.kind == "is.recover":
            bump("is_recoveries_total", process=event.component)
        elif event.kind == "wal.append":
            bump("wal_appends_total", wal=args["wal"])
            bump("wal_records_total", kind=args["record"])
    return dict(counts)


def hook_families(registry):
    """The snapshot minus the families written directly, not derived
    from the trace."""
    return {
        key: value
        for key, value in registry.snapshot().items()
        if not key.startswith(("sim_events", "explore_", "profile_"))
    }


class TestTraceDerivedCounters:
    """The registry's hook families are a reduction of the trace: they
    must equal a naive recount of the same run's events."""

    @pytest.mark.parametrize("topology", ["star", "chain"])
    def test_interconnected_run_matches_recount(self, topology):
        sink, registry = ListSink(), MetricsRegistry()
        result = build_interconnected(
            ["vector-causal"] * 3,
            WorkloadSpec(processes=3, ops_per_process=6, write_ratio=0.6),
            topology=topology,
            seed=0,
            tracer=Tracer(sink),
            metrics=registry,
        )
        run_until_quiescent(result.sim, result.systems)
        assert registry.total("is_pairs_sent_total") > 0
        assert hook_families(registry) == naive_recount(sink.events)

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_campaign_matches_recount(self, scenario):
        sink, registry = ListSink(), MetricsRegistry()
        result = run_campaign(
            scenario, seed=0, check_theorem1=False, tracer=Tracer(sink), metrics=registry
        )
        assert hook_families(registry) == naive_recount(sink.events)
        isps = [result.bridge.isp_a, result.bridge.isp_b]
        wals = [isp.wal for isp in isps]
        assert registry.total("wal_appends_total") == sum(wal.appends for wal in wals) > 0
        for wal in wals:
            assert registry.snapshot()[f'wal_appends_total{{wal="{wal.name}"}}'] == wal.appends
        # The recoverable IS-process traces its Propagate_in like the base one.
        received = sum(isp.link_stats(peer)[1] for isp in isps for peer in isp.peer_names)
        assert registry.total("is_pairs_received_total") == received > 0
        spans = [event for event in sink.events if event.kind == "is.propagate_in"]
        assert len(spans) == sum(isp.pairs_applied_in for isp in isps)

    @pytest.mark.parametrize("with_tracer", [True, False])
    def test_registry_attached_twice_counts_each_send_once(self, with_tracer):
        registry = MetricsRegistry()
        tracer = Tracer(ListSink()) if with_tracer else None
        sim = Simulator(instruments=combine(tracer, registry))
        recorder = HistoryRecorder()
        systems = [
            DSMSystem(sim, name, get("vector-causal"), recorder=recorder)
            for name in ("S0", "S1")
        ]
        systems[0].add_application("A", [Write("x", 1), Read("y")])
        systems[0].add_application("B", [])
        systems[1].add_application("C", [Write("y", 2)])
        bridge = connect(systems[0], systems[1], metrics=registry)
        run_until_quiescent(sim, systems)
        sent = sum(system.network.messages_sent for system in systems)
        assert sent > 0
        assert registry.total("net_messages_total") == sent
        assert registry.total("is_pairs_sent_total") == (
            bridge.pairs_a_to_b + bridge.pairs_b_to_a
        )
        assert registry.total("bridges_total") == 1

    def test_replaced_registry_stops_counting(self):
        old, new = MetricsRegistry(), MetricsRegistry()
        tracer = Tracer(ListSink())
        sim = Simulator(instruments=combine(tracer, old))
        sim.instruments = combine(None, new, sim.instruments)
        assert sim.tracer is tracer
        system = DSMSystem(sim, "S", get("vector-causal"))
        system.add_application("A", [Write("x", 1)])
        system.add_application("B", [])
        sim.run()
        assert new.total("net_messages_total") == 1
        assert old.total("net_messages_total") == 0
