"""Extension experiment X3: the protocol zoo under one workload.

One random workload, every protocol, one table: message cost, response
time, consistency verdicts (causal / causal-convergence / sequential
where applicable). Reproduces the textbook trade-off picture the paper's
§1 sketches — causal protocols are cheap, stronger models pay latency,
weaker ones fail the checker.
"""

from repro.checker import check_causal, check_causal_convergence, check_sequential
from repro.experiments import response_stats
from repro.memory.recorder import HistoryRecorder
from repro.memory.system import DSMSystem
from repro.protocols import get
from repro.sim.core import Simulator
from repro.workloads import WorkloadSpec, populate_system
from repro.workloads.scenarios import run_until_quiescent

PROTOCOLS = [
    "vector-causal",
    "parametrized-causal",
    "precise-causal",
    "delayed-causal",
    "partial-causal",
    "invalidation-causal",
    "aw-sequential",
    "parametrized-sequential",
    "lamport-sequential",
    "hybrid",
    "parametrized-cache",
    "fifo-apply",
]

SPEC = WorkloadSpec(processes=4, ops_per_process=6, write_ratio=0.5)


def run_zoo_member(protocol: str, seed: int = 11):
    sim = Simulator()
    recorder = HistoryRecorder()
    system = DSMSystem(sim, "S", get(protocol), recorder=recorder, seed=seed)
    populate_system(system, SPEC, seed=seed)
    run_until_quiescent(sim, [system])
    history = recorder.history()
    writes = max(sum(1 for op in history if op.is_write), 1)
    return {
        "protocol": protocol,
        "msgs_per_write": system.network.messages_sent / writes,
        "mean_response": response_stats([system]).mean,
        "causal": check_causal(history).ok,
        "ccv": check_causal_convergence(history).ok,
        "sequential": check_sequential(history).ok if len(history) <= 60 else None,
    }


def test_x3_protocol_zoo_table(benchmark):
    rows = benchmark(lambda: [run_zoo_member(protocol) for protocol in PROTOCOLS])
    print("\nX3: protocol zoo, one workload (4 procs x 6 ops, 50% writes)")
    print(
        f"{'protocol':<26} {'msgs/w':>7} {'resp':>6} {'causal':>7} {'CCv':>5} {'seq':>5}"
    )
    for row in rows:
        seq = "-" if row["sequential"] is None else ("yes" if row["sequential"] else "no")
        print(
            f"{row['protocol']:<26} {row['msgs_per_write']:>7.2f} "
            f"{row['mean_response']:>6.2f} {'yes' if row['causal'] else 'NO':>7} "
            f"{'yes' if row['ccv'] else 'no':>5} {seq:>5}"
        )
    by_name = {row["protocol"]: row for row in rows}
    # Every protocol that claims causal consistency must deliver it.
    for name in PROTOCOLS:
        if get(name).consistency in ("causal", "sequential"):
            assert by_name[name]["causal"], name
    # Sequential protocols are sequential (and hence CCv).
    assert by_name["aw-sequential"]["sequential"]
    assert by_name["aw-sequential"]["ccv"]
    # Write-blocking protocols pay response time; local ones do not.
    assert by_name["aw-sequential"]["mean_response"] > 0
    assert by_name["vector-causal"]["mean_response"] == 0


def test_x3_cheapest_causal_protocol(benchmark):
    def cheapest():
        causal_rows = [
            run_zoo_member(protocol)
            for protocol in PROTOCOLS
            if get(protocol).consistency == "causal"
        ]
        return min(causal_rows, key=lambda row: row["msgs_per_write"])

    winner = benchmark(cheapest)
    print(f"\nX3: cheapest causal protocol by messages/write: {winner['protocol']}")
    assert winner["causal"]
