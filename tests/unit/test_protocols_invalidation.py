"""Unit tests for the invalidation-based causal protocol and its IS adapter."""

from repro.checker import check_causal
from repro.memory.interface import UpcallHandler
from repro.memory.program import Read, Sleep, Write
from repro.memory.recorder import HistoryRecorder
from repro.memory.system import DSMSystem
from repro.obs import TrafficMeter
from repro.protocols import get
from repro.protocols.invalidation import InvalidationCausalMCS
from repro.sim.clock import VectorClock
from repro.sim.core import Simulator
from repro.workloads import WorkloadSpec, populate_system
from repro.workloads.scenarios import run_until_quiescent


def make_system(seed=0):
    sim = Simulator()
    recorder = HistoryRecorder()
    system = DSMSystem(sim, "S", get("invalidation-causal"), recorder=recorder, seed=seed)
    return sim, recorder, system


class TestInvalidationBasics:
    def test_write_invalidates_remote_replicas(self):
        sim, _, system = make_system()
        system.add_application("A", [Write("x", 1)])
        other = system.add_application("B", [])
        sim.run()
        assert not other.mcs.replica_valid("x")

    def test_writer_copy_stays_valid(self):
        sim, _, system = make_system()
        writer = system.add_application("A", [Write("x", 1)])
        system.add_application("B", [])
        sim.run()
        assert writer.mcs.replica_valid("x")
        assert writer.mcs.local_value("x") == 1

    def test_read_of_invalid_replica_fetches(self):
        sim, recorder, system = make_system()
        system.add_application("A", [Write("x", 1)])
        reader = system.add_application("B", [Sleep(5.0), Read("x")])
        sim.run()
        read = recorder.history().of_process("B")[-1]
        assert read.value == 1
        assert read.response_time > read.issue_time  # a round trip
        assert reader.mcs.fetches == 1

    def test_fetched_value_cached_for_later_reads(self):
        sim, recorder, system = make_system()
        system.add_application("A", [Write("x", 1)])
        reader = system.add_application("B", [Sleep(5.0), Read("x"), Read("x")])
        sim.run()
        assert reader.mcs.fetches == 1  # second read is local
        reads = [op.value for op in recorder.history().of_process("B") if op.is_read]
        assert reads == [1, 1]

    def test_no_value_broadcast_on_write(self):
        sim, _, system = make_system()
        meter = TrafficMeter().attach(system.network)
        system.add_application("A", [Write("x", 1)])
        for index in range(3):
            system.add_application(f"p{index}", [])
        sim.run()
        assert meter.by_kind["Invalidation"] == 3
        assert meter.by_kind.get("FetchReply", 0) == 0  # nobody read

    def test_read_before_any_write_returns_initial(self):
        sim, recorder, system = make_system()
        system.add_application("A", [Read("x")])
        sim.run()
        assert recorder.history().operations[0].value is None


class TestArbitration:
    def test_key_total_order_consistent_with_causality(self):
        earlier = VectorClock({0: 1})
        later = VectorClock({0: 1, 1: 1})
        key = InvalidationCausalMCS._arbitration_key
        assert key(earlier, "A") < key(later, "B")
        assert key(earlier, "A") < key(earlier.increment(0), "A")

    def test_concurrent_writes_tie_broken_by_name(self):
        a = VectorClock({0: 1})
        b = VectorClock({1: 1})
        key = InvalidationCausalMCS._arbitration_key
        assert (key(a, "X") > key(b, "W")) == ("X" > "W")

    def test_concurrent_writers_converge_via_chase(self):
        sim, recorder, system = make_system(seed=1)
        system.add_application("A", [Write("x", "a")])
        system.add_application("B", [Write("x", "b")])
        readers = [
            system.add_application(f"R{index}", [Sleep(20.0), Read("x")])
            for index in range(3)
        ]
        sim.run()
        values = {
            op.value for op in recorder.history() if op.is_read
        }
        assert len(values) == 1  # all readers fetched the arbitration winner

    def test_chase_terminates_with_many_concurrent_writers(self):
        sim, recorder, system = make_system(seed=2)
        for index in range(5):
            system.add_application(f"W{index}", [Write("x", f"v{index}")])
        reader = system.add_application("R", [Sleep(30.0), Read("x")])
        sim.run()
        read = recorder.history().of_process("R")[-1]
        assert read.value is not None


class TestCausality:
    def test_random_workloads_are_causal(self):
        for seed in range(6):
            sim, recorder, system = make_system(seed=seed)
            populate_system(
                system,
                WorkloadSpec(processes=4, ops_per_process=7, write_ratio=0.5),
                seed=seed,
            )
            run_until_quiescent(sim, [system])
            verdict = check_causal(recorder.history())
            assert verdict.ok, f"seed {seed}: {verdict.summary()}"

    def test_transitive_dependency_respected(self):
        sim, recorder, system = make_system(seed=3)
        writer = system.add_application("A", [Write("x", 1)])

        def relay():
            while True:
                value = yield Read("x")
                if value == 1:
                    break
                yield Sleep(0.5)
            yield Write("y", 2)

        system.add_application("B", relay())
        program = []
        for _ in range(30):
            program += [Read("y"), Read("x"), Sleep(1.0)]
        observer = system.add_application("C", program)
        system.network.set_delay(writer.mcs.name, observer.mcs.name, 20.0)
        sim.run()
        assert check_causal(recorder.history()).ok


class TestISAdapter:
    def test_upcalls_fire_with_fetched_values(self):
        sim, _, system = make_system()
        target = system.new_mcs("~isp:probe")
        seen = []

        class Probe(UpcallHandler):
            def post_update(self, var, value):
                seen.append((var, value, target.local_value(var)))

        target.attach_upcall_handler(Probe())
        system.add_application("A", [Write("x", 1)])
        sim.run()
        # Condition (c): at upcall time the replica holds the new value.
        assert seen == [("x", 1, 1)]

    def test_upcalls_in_causal_order_across_variables(self):
        sim, _, system = make_system()
        target = system.new_mcs("~isp:probe")
        order = []

        class Probe(UpcallHandler):
            def post_update(self, var, value):
                order.append((var, value))

        target.attach_upcall_handler(Probe())
        system.add_application("A", [Write("x", 1), Write("y", 2)])
        sim.run()
        assert order == [("x", 1), ("y", 2)]  # Property 1 via serialised fetches

    def test_coalescing_skips_superseded_values(self):
        sim, _, system = make_system()
        target = system.new_mcs("~isp:probe")
        seen = []

        class Probe(UpcallHandler):
            def post_update(self, var, value):
                seen.append(value)

        target.attach_upcall_handler(Probe())
        system.add_application("A", [Write("x", 1), Write("x", 2), Write("x", 3)])
        sim.run()
        # Values are never upcalled twice and never go backwards.
        assert seen == sorted(set(seen))
        assert seen[-1] == 3

    def test_no_upcalls_for_own_writes(self):
        sim, _, system = make_system()
        target = system.new_mcs("~isp:probe")
        seen = []

        class Probe(UpcallHandler):
            def post_update(self, var, value):
                seen.append(value)

        target.attach_upcall_handler(Probe())
        target.issue_write("x", 99, lambda: None)
        sim.run()
        assert seen == []

    def test_late_fetch_reply_does_not_overwrite_a_newer_own_write(self):
        # The adapter fetches x=1 after A's invalidation; the IS-process
        # then writes x=2 before the reply lands. The older fetched value
        # must not replace the newer valid copy.
        sim, _, system = make_system()
        target = system.new_mcs("~isp:probe")
        seen = []

        class Probe(UpcallHandler):
            def post_update(self, var, value):
                seen.append(value)

        target.attach_upcall_handler(Probe())
        system.add_application("A", [Write("x", 1)])
        sim.schedule_at(1.5, lambda: target.issue_write("x", 2, lambda: None))
        sim.run()
        assert target.fetches == 1
        assert target.replica_valid("x")
        assert target.local_value("x") == 2
        assert seen == []  # x=1 lost arbitration before its value arrived
