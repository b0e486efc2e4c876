"""Unit tests for the MCS call/response architecture and upcall contract."""

import pytest

from repro.errors import ConfigurationError, DeadlockError, ProtocolError
from repro.memory.interface import AppProcess, MCSProcess, ReplicaWrite, UpcallHandler
from repro.memory.operations import INITIAL_VALUE, OpKind
from repro.memory.program import Read, Sleep, Write
from repro.memory.recorder import HistoryRecorder
from repro.memory.system import DSMSystem
from repro.obs.instruments import observe
from repro.obs.tracer import ListSink
from repro.protocols.base import ProtocolSpec
from repro.sim.core import Simulator
from repro.sim.network import Network


class LocalOnlyMCS(MCSProcess):
    """Trivial protocol: a purely local store, no propagation."""

    def __init__(self, **kwargs):
        kwargs.pop("latency", None)
        self._latency = 0.0
        super().__init__(**kwargs)

    def _handle_write(self, var, value, done):
        self._write_own(var, value)
        done()

    def _on_message(self, src, payload):
        raise AssertionError("no messages expected")


LOCAL_SPEC = ProtocolSpec(name="local-test", factory=LocalOnlyMCS)


def make_system():
    sim = Simulator()
    recorder = HistoryRecorder()
    system = DSMSystem(sim, "S", LOCAL_SPEC, recorder=recorder)
    return sim, recorder, system


class TestAppProcess:
    def test_list_program_runs_to_completion(self):
        sim, recorder, system = make_system()
        app = system.add_application("A", [Write("x", 1), Read("x")])
        sim.run()
        assert app.done
        assert app.ops_completed == 2
        history = recorder.history()
        assert [op.kind for op in history] == [OpKind.WRITE, OpKind.READ]
        assert history.operations[1].value == 1

    def test_generator_program_receives_read_values(self):
        sim, recorder, system = make_system()
        seen = []

        def program():
            yield Write("x", 7)
            value = yield Read("x")
            seen.append(value)

        system.add_application("A", program())
        sim.run()
        assert seen == [7]

    def test_sleep_advances_time(self):
        sim, _, system = make_system()
        system.add_application("A", [Sleep(3.5), Write("x", 1)])
        sim.run()
        assert sim.now == 3.5

    def test_think_time_spaces_operations(self):
        sim, recorder, system = make_system()
        system.add_application("A", [Write("x", 1), Write("y", 2)], think_time=2.0)
        sim.run()
        times = [op.issue_time for op in recorder.history()]
        assert times == [0.0, 2.0]

    def test_start_delay(self):
        sim, recorder, system = make_system()
        system.add_application("A", [Write("x", 1)], start_delay=5.0)
        sim.run()
        assert recorder.history().operations[0].issue_time == 5.0

    def test_duplicate_application_name_rejected(self):
        _, __, system = make_system()
        system.add_application("A", [])
        with pytest.raises(ConfigurationError):
            system.add_application("A", [])

    def test_unknown_command_raises(self):
        sim, _, system = make_system()
        system.add_application("A", ["bogus"])
        with pytest.raises(Exception):
            sim.run()

    def test_response_times_recorded(self):
        sim, recorder, system = make_system()
        system.add_application("A", [Write("x", 1), Sleep(2.0), Read("x")])
        sim.run()
        ops = recorder.history().of_process("A")
        assert [(op.issue_time, op.response_time) for op in ops] == [
            (0.0, 0.0),
            (2.0, 2.0),
        ]


class TestUpcalls:
    def make_mcs(self):
        sim = Simulator()
        network = Network(sim)
        mcs = LocalOnlyMCS(
            sim=sim, name="m", network=network, proc_index=0, system_name="S"
        )
        return sim, mcs

    def test_upcalls_fire_around_foreign_update(self):
        _, mcs = self.make_mcs()
        calls = []

        class Handler(UpcallHandler):
            wants_pre_update = True

            def pre_update(self, var):
                calls.append(("pre", var, mcs.local_value(var)))

            def post_update(self, var, value):
                calls.append(("post", var, mcs.local_value(var)))

        mcs.attach_upcall_handler(Handler())
        mcs._apply_with_upcalls(ReplicaWrite("x", 5), own_write=False)
        # Condition (c): the pre read sees the old value, the post read the new.
        assert calls == [("pre", "x", INITIAL_VALUE), ("post", "x", 5)]

    def test_no_upcall_for_own_write(self):
        _, mcs = self.make_mcs()
        calls = []

        class Handler(UpcallHandler):
            def post_update(self, var, value):
                calls.append(var)

        mcs.attach_upcall_handler(Handler())
        mcs._apply_with_upcalls(ReplicaWrite("x", 5), own_write=True)
        assert calls == []

    def test_pre_update_disabled_by_default(self):
        _, mcs = self.make_mcs()
        calls = []

        class Handler(UpcallHandler):
            def pre_update(self, var):
                calls.append("pre")

            def post_update(self, var, value):
                calls.append("post")

        mcs.attach_upcall_handler(Handler())
        mcs._apply_with_upcalls(ReplicaWrite("x", 1), own_write=False)
        assert calls == ["post"]

    def test_double_attach_rejected(self):
        _, mcs = self.make_mcs()
        mcs.attach_upcall_handler(UpcallHandler())
        with pytest.raises(ProtocolError):
            mcs.attach_upcall_handler(UpcallHandler())

    def test_replica_apply_traced(self):
        sim, mcs = self.make_mcs()
        sink = observe(sim, ListSink())
        mcs._apply_with_upcalls(ReplicaWrite("x", 1), own_write=True)
        mcs._apply_with_upcalls(ReplicaWrite("y", 2), own_write=False)
        assert [
            (event.kind, event.component, event.system, dict(event.args))
            for event in sink.events
        ] == [
            ("replica.apply", "m", "S", {"var": "x", "value": 1, "own_write": True}),
            ("replica.apply", "m", "S", {"var": "y", "value": 2, "own_write": False}),
        ]


class TestQuiescence:
    def test_check_quiescent_passes_when_done(self):
        sim, _, system = make_system()
        system.add_application("A", [Write("x", 1)])
        sim.run()
        system.check_quiescent()

    def test_blocked_process_detected(self):
        class NeverRespondsMCS(LocalOnlyMCS):
            def _handle_read(self, var, done):
                pass  # drops the call on the floor

        spec = ProtocolSpec(name="never-test", factory=NeverRespondsMCS)
        sim = Simulator()
        system = DSMSystem(sim, "S", spec, recorder=HistoryRecorder())
        system.add_application("A", [Read("x")])
        sim.run()
        with pytest.raises(DeadlockError, match="blocked"):
            system.check_quiescent()
