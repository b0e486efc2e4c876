#!/usr/bin/env python3
"""Tour of the protocol zoo: cost versus consistency, measured live.

Runs the same workload on every registered MCS protocol and prints the
trade-off table: message cost per write, operation response time, and
which consistency models the recorded computation actually satisfies
(decided by the checkers, not taken on faith).

Run:  python examples/protocol_zoo.py
"""

from repro import (
    DSMSystem,
    HistoryRecorder,
    Simulator,
    available_protocols,
    check_causal,
    check_sequential,
    get_protocol,
)
from repro.checker import check_causal_convergence, check_pram
from repro.experiments import response_stats
from repro.workloads import WorkloadSpec, populate_system
from repro.workloads.scenarios import run_until_quiescent

SPEC = WorkloadSpec(processes=4, ops_per_process=6, write_ratio=0.5)


def measure(protocol_name: str, seed: int = 11) -> dict:
    sim = Simulator()
    recorder = HistoryRecorder()
    system = DSMSystem(sim, "S", get_protocol(protocol_name), recorder=recorder, seed=seed)
    populate_system(system, SPEC, seed=seed)
    run_until_quiescent(sim, [system])
    history = recorder.history()
    writes = max(sum(1 for op in history if op.is_write), 1)
    return {
        "claimed": get_protocol(protocol_name).consistency,
        "msgs": system.network.messages_sent / writes,
        "resp": response_stats([system]).mean,
        "causal": check_causal(history).ok,
        "ccv": check_causal_convergence(history).ok,
        "pram": check_pram(history).ok,
        "seq": check_sequential(history).ok,
    }


def main() -> None:
    print(f"workload: {SPEC.processes} processes x {SPEC.ops_per_process} ops, "
          f"{SPEC.write_ratio:.0%} writes\n")
    print(f"{'protocol':<26} {'claims':<11} {'msgs/w':>7} {'resp':>6}  "
          f"{'seq':>4} {'CCv':>4} {'causal':>7} {'PRAM':>5}")
    print("-" * 78)
    for name in available_protocols():
        row = measure(name)
        flags = "  ".join(
            f"{'yes' if row[key] else 'no':>4}" if key != "causal"
            else f"{'yes' if row[key] else 'no':>6}"
            for key in ("seq", "ccv", "causal", "pram")
        )
        print(f"{name:<26} {row['claimed']:<11} {row['msgs']:>7.2f} {row['resp']:>6.2f}  {flags}")
    print()
    print("notes: verdicts are measured on THIS run. Weak protocols (fifo-apply,")
    print("scrambled-apply) violate their missing models only under adversarial")
    print("timing — see repro.workloads.scenarios for deterministic witnesses.")


if __name__ == "__main__":
    main()
