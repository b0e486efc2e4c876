"""Unit tests for the Chrome ``trace_event`` exporter."""

import json

from repro.obs.chrome import TIME_SCALE, to_chrome, write_chrome
from repro.obs.tracer import ListSink, Tracer
from repro.workloads import WorkloadSpec, build_interconnected
from repro.workloads.scenarios import run_until_quiescent


def traced_bridge_events(seed=9):
    sink = ListSink()
    tracer = Tracer(sink)
    result = build_interconnected(
        ["vector-causal", "vector-causal"],
        WorkloadSpec(processes=2, ops_per_process=4, write_ratio=0.6),
        seed=seed,
        tracer=tracer,
    )
    run_until_quiescent(result.sim, result.systems)
    return sink.events


class TestSchema:
    """The exporter must produce records chrome://tracing / Perfetto accept:
    JSON object format, integer pid/tid, numeric ts in microseconds."""

    def test_top_level_shape(self):
        blob = to_chrome(traced_bridge_events())
        assert isinstance(blob["traceEvents"], list)
        assert blob["displayTimeUnit"] in ("ms", "ns")

    def test_every_record_well_formed(self):
        records = to_chrome(traced_bridge_events())["traceEvents"]
        assert records
        for record in records:
            assert isinstance(record["pid"], int)
            assert isinstance(record["tid"], int)
            assert isinstance(record["name"], str)
            assert record["ph"] in ("M", "i", "B", "E", "X", "s", "f")
            if record["ph"] != "M":
                assert isinstance(record["ts"], (int, float))

    def test_metadata_names_processes_and_threads(self):
        records = to_chrome(traced_bridge_events())["traceEvents"]
        metadata = [record for record in records if record["ph"] == "M"]
        names = {record["name"] for record in metadata}
        assert "process_name" in names and "thread_name" in names

    def test_timestamps_scaled_to_microseconds(self):
        events = traced_bridge_events()
        records = to_chrome(events)["traceEvents"]
        last_virtual = max(event.ts for event in events)
        timed = [record["ts"] for record in records if record["ph"] != "M"]
        assert max(timed) <= last_virtual * TIME_SCALE + 1e-6

    def test_complete_spans_carry_durations(self):
        records = to_chrome(traced_bridge_events())["traceEvents"]
        complete = [record for record in records if record["ph"] == "X"]
        assert complete, "operation spans should export as X records"
        assert all(record["dur"] >= 0 for record in complete)

    def test_instant_records_thread_scoped(self):
        records = to_chrome(traced_bridge_events())["traceEvents"]
        instants = [record for record in records if record["ph"] == "i"]
        assert instants
        assert all(record["s"] == "t" for record in instants)


class TestFlows:
    def test_send_recv_flows_pair_up(self):
        records = to_chrome(traced_bridge_events())["traceEvents"]
        starts = [record for record in records if record["ph"] == "s"]
        finishes = [record for record in records if record["ph"] == "f"]
        assert starts, "message sends should open flows"
        assert len(starts) == len(finishes)
        assert {record["id"] for record in starts} == {
            record["id"] for record in finishes
        }

    def test_flow_ids_unique_per_start(self):
        records = to_chrome(traced_bridge_events())["traceEvents"]
        start_ids = [record["id"] for record in records if record["ph"] == "s"]
        assert len(start_ids) == len(set(start_ids))

    def test_unmatched_finish_dropped(self):
        # A recv with no recorded send (e.g. the send fell out of a ring
        # buffer) must not produce a dangling flow finish.
        tracer = Tracer(ListSink())
        tracer.emit(1.0, "msg.recv", "chan", channel="c", n=1)
        records = to_chrome(tracer.sink.events)["traceEvents"]
        assert not [record for record in records if record["ph"] in ("s", "f")]


class TestVectorClockAnnotations:
    def test_clock_rendered_into_args(self):
        events = traced_bridge_events()
        records = to_chrome(events)["traceEvents"]
        clocked = [
            record
            for record in records
            if record["ph"] not in ("M", "s", "f")
            and "vector_clock" in record.get("args", {})
        ]
        assert clocked, "replica/IS events should carry vector-clock annotations"


class TestWriteChrome:
    def test_file_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.chrome.json"
        count = write_chrome(traced_bridge_events(), path)
        blob = json.loads(path.read_text(encoding="utf-8"))
        assert len(blob["traceEvents"]) == count

    def test_net_send_payloads_are_encoded(self, tmp_path):
        # net.send events carry protocol messages (not JSON-native); the
        # exporter renders them the way JsonlSink does instead of crashing.
        events = traced_bridge_events()
        sends = [event for event in events if event.kind == "net.send"]
        assert sends, "the bridge run should trace its network sends"
        path = tmp_path / "trace.chrome.json"
        write_chrome(sends, path)
        records = json.loads(path.read_text(encoding="utf-8"))["traceEvents"]
        exported = [record for record in records if record["name"] == "net.send"]
        assert [record["args"]["payload"] for record in exported] == [
            repr(event.arg("payload")) for event in sends
        ]
        assert {record["args"]["network"] for record in exported} == {
            event.arg("network") for event in sends
        }
