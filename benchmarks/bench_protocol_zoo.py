"""Extension experiment X3: the protocol zoo under one workload.

One random workload, every protocol, one table: message cost, response
time, consistency verdicts (causal / causal-convergence / sequential
where applicable). Reproduces the textbook trade-off picture the paper's
§1 sketches — causal protocols are cheap, stronger models pay latency,
weaker ones fail the checker.
"""

from repro.experiments import ZOO_PROTOCOLS as PROTOCOLS, run_zoo_member
from repro.protocols import get


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
