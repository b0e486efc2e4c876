"""X7: necessity of the paper's channel assumptions (reliable FIFO).

The IS-protocols require "a bidirectional reliable FIFO channel" (§1.1).
Each assumption is broken in isolation:

* non-FIFO delivery reorders the propagated pairs, so causally ordered
  writes arrive inverted in the peer system — the Lemma 1 failure mode
  without any exotic MCS protocol;
* at-least-once delivery makes the naive ``Propagate_in`` write a value
  twice, wrecking the §2 discipline — and the ``dedup_incoming``
  hardening restores exactly-once semantics and causality.
"""

import functools

import pytest

from repro.checker import check_causal
from repro.errors import CheckerError
from repro.interconnect.bridge import connect
from repro.memory.program import Read, Sleep, Write
from repro.memory.recorder import HistoryRecorder
from repro.memory.system import DSMSystem
from repro.protocols import get
from repro.sim.channel import FaultPlan, ReliableFifoChannel, UniformDelay
from repro.sim.core import Simulator
from repro.workloads.scenarios import poll_until, run_until_quiescent


#: Reliable but NOT FIFO: every frame escapes the hold-back, with no
#: extra spread beyond its own sampled delay.
REORDERING = functools.partial(
    ReliableFifoChannel, faults=FaultPlan(reorder_probability=1.0, reorder_spread=0.0)
)
#: FIFO and loss-free, but at-least-once: half the frames arrive twice.
DUPLICATING = functools.partial(
    ReliableFifoChannel, faults=FaultPlan(duplicate_probability=0.5)
)


def build_pair(channel_factory, seed=0, delay=1.0, dedup=False):
    sim = Simulator()
    recorder = HistoryRecorder()
    s0 = DSMSystem(sim, "S0", get("vector-causal"), recorder=recorder, seed=seed)
    s1 = DSMSystem(sim, "S1", get("vector-causal"), recorder=recorder, seed=seed + 1)
    bridge = connect(
        s0, s1, delay=delay, channel_factory=channel_factory, seed=seed,
        dedup_incoming=dedup,
    )
    return sim, recorder, s0, s1, bridge


class TestReorderingChannel:
    def scenario(self, seed):
        """w(x)v then w(y)u causally ordered in S0; the observer in S1
        reads y=u then x — reordered pairs let it see u without v."""
        sim, recorder, s0, s1, bridge = build_pair(
            REORDERING, seed=seed, delay=UniformDelay(0.1, 12.0)
        )
        s0.add_application("A", [Sleep(1.0), Write("x", "v")])
        s0.add_application(
            "B", poll_until("x", "v", then=[Write("y", "u")], poll_interval=0.25)
        )

        def observer():
            for _ in range(200):
                seen = yield Read("y")
                if seen == "u":
                    yield Read("x")
                    return
                yield Sleep(0.25)

        s1.add_application("C", observer())
        run_until_quiescent(sim, [s0, s1])
        return check_causal(recorder.history().without_interconnect()).ok

    def test_some_seed_violates_causality(self):
        verdicts = [self.scenario(seed) for seed in range(12)]
        assert not all(verdicts), "reordering never produced the inversion"

    def test_fifo_channel_never_violates(self):
        def fifo_scenario(seed):
            sim, recorder, s0, s1, _ = build_pair(
                ReliableFifoChannel, seed=seed, delay=UniformDelay(0.1, 12.0)
            )
            s0.add_application("A", [Sleep(1.0), Write("x", "v")])
            s0.add_application(
                "B", poll_until("x", "v", then=[Write("y", "u")], poll_interval=0.25)
            )

            def observer():
                for _ in range(200):
                    seen = yield Read("y")
                    if seen == "u":
                        yield Read("x")
                        return
                    yield Sleep(0.25)

            s1.add_application("C", observer())
            run_until_quiescent(sim, [s0, s1])
            return check_causal(recorder.history().without_interconnect()).ok

        assert all(fifo_scenario(seed) for seed in range(12))


class TestDuplicatingChannel:
    def run_duplicating(self, dedup, seed=0):
        sim, recorder, s0, s1, bridge = build_pair(
            DUPLICATING, seed=seed, dedup=dedup
        )
        s0.add_application(
            "A", [Write("x", "one"), Sleep(2.0), Write("y", "two"), Sleep(2.0), Write("x", "three")]
        )
        s1.add_application("B", [Sleep(40.0), Read("x"), Read("y")])
        run_until_quiescent(sim, [s0, s1])
        return recorder.history(), bridge

    def test_duplicates_injected(self):
        history, bridge = self.run_duplicating(dedup=True, seed=3)
        assert bridge.channel_ab.frames_duplicated > 0

    def test_naive_propagate_in_breaks_value_uniqueness(self):
        found_breakage = False
        for seed in range(8):
            history, bridge = self.run_duplicating(dedup=False, seed=seed)
            if bridge.channel_ab.frames_duplicated == 0:
                continue
            with pytest.raises(CheckerError, match="written twice"):
                history.for_system("S1").validate()
            found_breakage = True
            break
        assert found_breakage

    def test_dedup_restores_exactly_once(self):
        for seed in range(8):
            history, bridge = self.run_duplicating(dedup=True, seed=seed)
            history.for_system("S1").validate()  # no double writes
            verdict = check_causal(history.without_interconnect())
            assert verdict.ok
            if bridge.channel_ab.frames_duplicated:
                assert bridge.isp_b.duplicates_dropped > 0

    def test_values_still_arrive_with_dedup(self):
        history, _ = self.run_duplicating(dedup=True, seed=1)
        reads = [op.value for op in history.of_process("B") if op.is_read]
        assert reads == ["three", "two"]
