#!/usr/bin/env python3
"""Tour of the protocol zoo: cost versus consistency, measured live.

Runs the same workload on every registered MCS protocol and prints the
trade-off table: message cost per write, operation response time, and
which consistency models the recorded computation actually satisfies
(decided by the checkers, not taken on faith).

Run:  python examples/protocol_zoo.py
"""

from repro import available_protocols, get_protocol
from repro.experiments import ZOO_WORKLOAD, run_zoo_member


def main() -> None:
    spec = ZOO_WORKLOAD
    print(f"workload: {spec.processes} processes x {spec.ops_per_process} ops, "
          f"{spec.write_ratio:.0%} writes\n")
    print(f"{'protocol':<26} {'claims':<11} {'msgs/w':>7} {'resp':>6}  "
          f"{'seq':>4} {'CCv':>4} {'causal':>7} {'PRAM':>5}")
    print("-" * 78)
    for name in available_protocols():
        row = run_zoo_member(name)
        flags = "  ".join(
            f"{'yes' if row[key] else 'no':>4}" if key != "causal"
            else f"{'yes' if row[key] else 'no':>6}"
            for key in ("sequential", "ccv", "causal", "pram")
        )
        claimed = get_protocol(name).consistency
        print(f"{name:<26} {claimed:<11} {row['msgs_per_write']:>7.2f} "
              f"{row['mean_response']:>6.2f}  {flags}")
    print()
    print("notes: verdicts are measured on THIS run. Weak protocols (fifo-apply,")
    print("scrambled-apply) violate their missing models only under adversarial")
    print("timing — see repro.workloads.scenarios for deterministic witnesses.")


if __name__ == "__main__":
    main()
