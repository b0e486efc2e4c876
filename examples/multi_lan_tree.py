#!/usr/bin/env python3
"""The paper's motivating deployment (§1.1 + §6): several LANs, one slow
link each — and why you interconnect instead of running one flat system.

Compares, for the same workload:

  (a) one flat causal system spanning four LANs, and
  (b) four causal systems (one per LAN) interconnected as a star,

measuring total messages, slow-link crossings, and write visibility
latency. The reproduction of the paper's headline numbers: crossings drop
from n_far per write to exactly 1, at the price of a few extra messages
and bounded extra latency (3l + 2d worst case).

Run:  python examples/multi_lan_tree.py
"""

from repro import (
    DSMSystem,
    HistoryRecorder,
    Simulator,
    check_causal,
    get_protocol,
    interconnect,
    run_until_quiescent,
)
from repro.analysis import (
    bottleneck_crossings_interconnected,
    flat_messages_per_write,
    interconnected_messages_per_write,
    star_worst_latency,
)
from repro.obs import TrafficMeter, VisibilityTracker
from repro.workloads import WorkloadSpec, populate_system

LANS = 4
PER_LAN = 3
SPEC = WorkloadSpec(processes=PER_LAN, ops_per_process=4, write_ratio=1.0)


def run_flat():
    sim = Simulator()
    recorder = HistoryRecorder()
    system = DSMSystem(sim, "flat", get_protocol("vector-causal"), recorder=recorder)
    meter = TrafficMeter().attach(system.network)
    populate_system(
        system,
        WorkloadSpec(processes=LANS * PER_LAN, ops_per_process=4, write_ratio=1.0),
        seed=1,
        segments=[f"lan{index}" for index in range(LANS)],
    )
    tracker = VisibilityTracker().attach_systems([system])
    run_until_quiescent(sim, [system])
    writes = sum(1 for op in recorder.history() if op.is_write)
    assert check_causal(recorder.history()).ok
    return {
        "messages/write": system.network.messages_sent / writes,
        "slow-link crossings/write": meter.cross_segment / writes,
        "worst visibility latency": tracker.worst_latency(),
    }


def run_star():
    sim = Simulator()
    recorder = HistoryRecorder()
    systems = []
    for index in range(LANS):
        system = DSMSystem(
            sim, f"lan{index}", get_protocol("vector-causal"), recorder=recorder, seed=index
        )
        populate_system(system, SPEC, seed=index * 17)
        systems.append(system)
    connection = interconnect(systems, topology="star", delay=1.0, shared=True)
    tracker = VisibilityTracker().attach_systems(systems)
    run_until_quiescent(sim, systems)
    history = recorder.history()
    writes = sum(1 for op in history.without_interconnect() if op.is_write)
    assert check_causal(history.without_interconnect()).ok
    return {
        "messages/write": (
            connection.intra_system_messages + connection.inter_system_messages
        )
        / writes,
        "slow-link crossings/write": connection.inter_system_messages / writes / (LANS - 1),
        "worst visibility latency": tracker.worst_latency(),
    }


def main() -> None:
    n = LANS * PER_LAN
    flat = run_flat()
    star = run_star()
    print(f"{n} processes across {LANS} LANs, write-only workload\n")
    print(f"{'metric':<32} {'flat':>10} {'star':>10}   model")
    print("-" * 76)
    models = {
        "messages/write": (
            f"n-1={flat_messages_per_write(n)} vs "
            f"n+m-1={interconnected_messages_per_write(n, LANS)}"
        ),
        "slow-link crossings/write": (
            f"per far LAN: {PER_LAN} vs {bottleneck_crossings_interconnected()}"
        ),
        "worst visibility latency": f"l vs <= 3l+2d={star_worst_latency(1.0, 1.0, LANS)}",
    }
    for key in flat:
        print(f"{key:<32} {flat[key]:>10.2f} {star[key]:>10.2f}   {models[key]}")
    print()
    print("=> interconnection trades a few broadcast messages and bounded")
    print("   latency for a ~{:.0f}x reduction on every slow link.".format(
        flat["slow-link crossings/write"] / star["slow-link crossings/write"]
    ))


if __name__ == "__main__":
    main()
