"""Resilient transport economics: goodput and retransmit overhead vs drop rate.

The session layer buys back the paper's §1.1 reliable-FIFO assumption
from a lossy wire; this benchmark prices it. For drop rates 0%, 5% and
20% (the ISSUE's acceptance grid) it measures, on one deterministic
workload:

* goodput — application pairs delivered across the link per unit of
  virtual time;
* retransmit overhead — fraction of DATA frames that were
  retransmissions;
* mean pair latency — send-to-in-order-delivery, the price of ARQ.

Causality is asserted at every point: losing performance is allowed,
losing Theorem 1 is not.
"""

from repro.analysis import Comparison, render_table
from repro.checker import check_causal
from repro.interconnect.bridge import connect
from repro.memory.recorder import HistoryRecorder
from repro.memory.system import DSMSystem
from repro.protocols import base as protocol_base
from repro.resilience.transport import RetryPolicy
from repro.sim.channel import FaultPlan
from repro.sim.core import Simulator
from repro.workloads.generator import WorkloadSpec, populate_system
from repro.workloads.scenarios import run_until_quiescent
from repro.workloads.values import ValueFactory

DROP_RATES = (0.0, 0.05, 0.20)

SPEC = WorkloadSpec(processes=3, ops_per_process=12, write_ratio=0.6, max_think=3.0)

#: Tighter-than-default timer so the benchmark measures steady-state ARQ
#: rather than backoff tails.
RETRY = RetryPolicy(base_timeout=3.0, multiplier=2.0, max_timeout=24.0, jitter=0.25)


def run_at_drop_rate(drop_rate: float, seed: int = 0):
    """One resilient-bridge run; returns (goodput, overhead, mean_delay, causal)."""
    sim = Simulator()
    recorder = HistoryRecorder()
    values = ValueFactory()
    systems = []
    for index in range(2):
        system = DSMSystem(
            sim, name=f"S{index}", protocol=protocol_base.get("vector-causal"),
            recorder=recorder, seed=seed + index, default_delay=1.0,
        )
        populate_system(system, SPEC, values=values, seed=seed + 100 * index)
        systems.append(system)
    faults = FaultPlan(drop_probability=drop_rate) if drop_rate else None
    bridge = connect(
        systems[0], systems[1], delay=1.0,
        transport="resilient", faults=faults, retry=RETRY, seed=seed,
    )
    run_until_quiescent(sim, systems)
    channels = (bridge.channel_ab, bridge.channel_ba)
    delivered = sum(c.stats.messages_delivered for c in channels)
    frames = sum(c.wire.data_frames_sent for c in channels)
    retransmits = sum(c.wire.retransmissions for c in channels)
    total_delay = sum(c.stats.total_delay for c in channels)
    goodput = delivered / sim.now if sim.now > 0 else 0.0
    overhead = retransmits / frames if frames else 0.0
    mean_delay = total_delay / delivered if delivered else 0.0
    causal = check_causal(recorder.history().without_interconnect()).ok
    return goodput, overhead, mean_delay, causal


def test_resilience_drop_rate_sweep(benchmark):
    def sweep():
        return [(rate, *run_at_drop_rate(rate)) for rate in DROP_RATES]

    results = benchmark(sweep)
    print("\nresilient transport: drop rate -> (goodput pairs/t, retransmit overhead, mean delay, causal)")
    for rate, goodput, overhead, mean_delay, causal in results:
        print(f"  {rate:>4.0%} -> ({goodput:7.3f}, {overhead:5.1%}, {mean_delay:7.2f}, {causal})")
    assert all(causal for *_, causal in results)
    baseline = results[0]
    worst = results[-1]
    assert baseline[2] == 0.0  # no drops, no retransmits
    assert worst[2] > 0.0  # 20% drop forces retransmission
    assert worst[3] >= baseline[3]  # ARQ latency grows with loss


def test_resilience_overhead_vs_reliable_channel(benchmark):
    """The session layer's frame overhead at zero loss, vs the assumed channel."""

    def run_assumed(seed: int = 0):
        sim = Simulator()
        recorder = HistoryRecorder()
        values = ValueFactory()
        systems = []
        for index in range(2):
            system = DSMSystem(
                sim, name=f"S{index}", protocol=protocol_base.get("vector-causal"),
                recorder=recorder, seed=seed + index, default_delay=1.0,
            )
            populate_system(system, SPEC, values=values, seed=seed + 100 * index)
            systems.append(system)
        bridge = connect(systems[0], systems[1], delay=1.0, seed=seed)
        run_until_quiescent(sim, systems)
        pairs = bridge.channel_ab.stats.messages_sent + bridge.channel_ba.stats.messages_sent
        return pairs, sim.now

    assumed_pairs, assumed_finish = run_assumed()
    goodput, overhead, mean_delay, causal = benchmark(run_at_drop_rate, 0.0)
    rows = [
        Comparison("finish time (vs assumed channel)", assumed_finish, assumed_pairs / goodput),
        Comparison("mean pair delay (vs wire delay 1.0)", 1.0, mean_delay),
    ]
    print()
    print(render_table("resilient session layer at 0% loss vs assumed reliable channel", rows))
    assert causal
    assert overhead == 0.0
