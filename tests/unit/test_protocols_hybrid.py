"""Unit tests for the hybrid (per-operation strong/weak) protocol."""

import pytest

from repro.checker import check_causal
from repro.memory.program import Read, Sleep, Write
from repro.memory.recorder import HistoryRecorder
from repro.memory.system import DSMSystem
from repro.protocols import get
from repro.protocols.hybrid import StrongUpdate
from repro.protocols.messages import CausalUpdate
from repro.sim.clock import VectorClock
from repro.sim.core import Simulator
from repro.workloads import WorkloadSpec, build_interconnected, populate_system
from repro.workloads.scenarios import run_until_quiescent


def make_system(seed=0, delay=1.0):
    sim = Simulator()
    recorder = HistoryRecorder()
    system = DSMSystem(sim, "S", get("hybrid"), recorder=recorder, seed=seed, default_delay=delay)
    return sim, recorder, system


def strong_logs(system):
    return [app.mcs.strong_apply_log for app in system.app_processes]


class TestWriteClasses:
    def test_weak_writes_respond_immediately(self):
        sim, recorder, system = make_system(delay=10.0)
        system.add_application("A", [Write("x", 1)])
        system.add_application("B", [])
        sim.run()
        op = recorder.history().operations[0]
        assert op.response_time == op.issue_time

    def test_strong_writes_block(self):
        sim, recorder, system = make_system(delay=2.0)
        system.add_application("A", [])  # A's MCS becomes the sequencer
        system.add_application("B", [Write("x", 1, strong=True)])
        sim.run()
        op = recorder.history().operations[0]
        # Non-sequencer strong write: request hop + sequenced broadcast.
        assert op.response_time - op.issue_time >= 4.0

    def test_reads_local(self):
        sim, recorder, system = make_system(delay=5.0)
        system.add_application("A", [Read("x")])
        system.add_application("B", [])
        sim.run()
        op = recorder.history().operations[0]
        assert op.response_time == op.issue_time

    def test_mixed_program_runs_to_completion(self):
        sim, recorder, system = make_system()
        system.add_application(
            "A", [Write("x", 1), Write("y", 2, strong=True), Read("x"), Read("y")]
        )
        system.add_application("B", [])
        run_until_quiescent(sim, [system])
        reads = [op.value for op in recorder.history() if op.is_read]
        assert reads == [1, 2]


class TestStrongTotalOrder:
    def test_all_replicas_agree_on_strong_order(self):
        sim, _, system = make_system(seed=4)
        for index in range(4):
            system.add_application(
                f"W{index}",
                [Sleep(index * 0.3), Write("x", f"s{index}", strong=True)],
            )
        run_until_quiescent(sim, [system])
        logs = strong_logs(system)
        assert all(log == logs[0] for log in logs)
        assert len(logs[0]) == 4

    def test_strong_and_weak_interleave_causally(self):
        sim, recorder, system = make_system(seed=5)
        populate = []
        for index in range(4):
            populate.append(Write("x", f"w{index}"))
            populate.append(Write("y", f"s{index}", strong=True))
        system.add_application("A", populate)
        system.add_application("B", [Sleep(40.0), Read("x"), Read("y")])
        run_until_quiescent(sim, [system])
        history = recorder.history()
        assert check_causal(history).ok
        reads = [op.value for op in history.of_process("B") if op.is_read]
        assert reads == ["w3", "s3"]

    def test_strong_order_respects_causality(self):
        # A strong write issued after reading another strong write's value
        # must come later in every replica's strong log.
        sim, _, system = make_system(seed=6)
        system.add_application("A", [Write("x", "first", strong=True)])

        def follower():
            while True:
                seen = yield Read("x")
                if seen == "first":
                    break
                yield Sleep(0.5)
            yield Write("y", "second", strong=True)

        system.add_application("B", follower())
        system.add_application("C", [])
        run_until_quiescent(sim, [system])
        for log in strong_logs(system):
            assert log.index(("x", "first")) < log.index(("y", "second"))


class TestJointDrain:
    def test_weak_arrival_releases_the_strong_write_waiting_on_it(self):
        # B writes x weakly, then y strongly. C receives the sequenced
        # strong write first: it waits in the strong buffer for B's weak
        # write. The weak write's arrival must apply both, within that
        # one delivery.
        _, _, system = make_system()
        for name in ("A", "B", "C"):
            system.add_application(name, [])
        sequencer, b, c = (app.mcs for app in system.app_processes)
        weak = CausalUpdate(
            var="x", value="w", ts=VectorClock({b.proc_index: 1}),
            sender_index=b.proc_index, sender_name=b.name,
        )
        strong = StrongUpdate(
            seqno=0, var="y", value="s", ts=VectorClock({b.proc_index: 2}),
            sender_index=b.proc_index, origin=b.name,
        )
        c._on_message(sequencer.name, strong)
        assert c.strong_apply_log == []
        assert c.local_value("y") != "s"
        c._on_message(b.name, weak)
        assert c.strong_apply_log == [("y", "s")]
        assert (c.local_value("x"), c.local_value("y")) == ("w", "s")
        assert c.clock == VectorClock({b.proc_index: 2})


class TestConsistency:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_weak_workloads_causal(self, seed):
        sim, recorder, system = make_system(seed=seed)
        populate_system(
            system,
            WorkloadSpec(processes=3, ops_per_process=6, write_ratio=0.5),
            seed=seed,
        )
        run_until_quiescent(sim, [system])
        assert check_causal(recorder.history()).ok

    def test_bridged_hybrid_is_causal(self):
        result = build_interconnected(
            ["hybrid", "vector-causal"],
            WorkloadSpec(processes=2, ops_per_process=5, write_ratio=0.5),
            seed=3,
        )
        run_until_quiescent(result.sim, result.systems)
        assert check_causal(result.global_history).ok

    def test_strong_totality_is_per_system_after_bridging(self):
        # The bridge carries plain pairs: a strong write enters the peer
        # as a (causal) IS-process write. The strong logs of the two
        # systems are therefore independent — the per-operation analogue
        # of E10's "the union is not sequential".
        sim = Simulator()
        recorder = HistoryRecorder()
        s0 = DSMSystem(sim, "S0", get("hybrid"), recorder=recorder, seed=0)
        s1 = DSMSystem(sim, "S1", get("hybrid"), recorder=recorder, seed=1)
        from repro.interconnect.topology import interconnect

        interconnect([s0, s1], delay=3.0)
        s0.add_application("A", [Write("x", "from-s0", strong=True)])
        s1.add_application("B", [Write("y", "from-s1", strong=True)])
        run_until_quiescent(sim, [s0, s1])
        assert check_causal(recorder.history().without_interconnect()).ok
        # Each system's strong log contains only its own strong writes.
        for app in s0.app_processes:
            assert app.mcs.strong_apply_log == [("x", "from-s0")]
        for app in s1.app_processes:
            assert app.mcs.strong_apply_log == [("y", "from-s1")]
