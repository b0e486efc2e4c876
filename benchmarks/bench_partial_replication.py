"""Extension experiment X1: partial replication economics.

The paper's reference [8] motivates partial replication: fewer full-value
messages at the price of remote reads. Measured here on the same random
workload:

* value-bearing messages per write shrink with the replication factor
  (notices, which carry only a timestamp, make up the difference);
* remote-read rate and read response times grow as replication shrinks;
* causality is preserved at every replication factor (the checker runs
  on every configuration).
"""

from repro.experiments import partial_replication

PROCESSES = 6


def run_partial(replication_factor: int, seed: int = 0):
    row = partial_replication(replication_factor, seed)
    assert row["causal"]
    return row


def test_x1_value_traffic_shrinks_with_factor(benchmark):
    sparse = benchmark(run_partial, 1)
    table = {factor: run_partial(factor) for factor in (1, 2, 4, PROCESSES)}
    print("\nX1: partial replication sweep (6 processes)")
    print(f"{'factor':>7} {'value msgs/w':>13} {'notices/w':>10} {'remote reads':>13} {'mean resp':>10}")
    for factor, row in table.items():
        print(
            f"{factor:>7} {row['value_msgs_per_write']:>13.2f} "
            f"{row['notice_msgs_per_write']:>10.2f} {row['remote_reads']:>13} "
            f"{row['mean_response']:>10.3f}"
        )
    values = [row["value_msgs_per_write"] for row in table.values()]
    assert values == sorted(values)  # monotone in the factor
    assert table[PROCESSES]["value_msgs_per_write"] == PROCESSES - 1  # full replication
    assert table[1]["remote_reads"] > table[PROCESSES]["remote_reads"]


def test_x1_fanout_is_always_n_minus_1(benchmark):
    """Values + notices together always fan out to n-1 peers: the §6 cost
    model counts messages, so partial replication does not change E1's
    count — only the payload mix."""

    def total_fanout(factor):
        row = run_partial(factor)
        return row["value_msgs_per_write"] + row["notice_msgs_per_write"]

    total = benchmark(total_fanout, 2)
    assert total == PROCESSES - 1
    assert total_fanout(1) == PROCESSES - 1


def test_x1_remote_reads_cost_latency(benchmark):
    sparse = benchmark(run_partial, 1)
    full = run_partial(PROCESSES)
    print(
        f"\nX1: mean response time factor=1: {sparse['mean_response']:.3f} "
        f"vs full replication: {full['mean_response']:.3f}"
    )
    assert sparse["mean_response"] > full["mean_response"]
    assert full["mean_response"] == 0.0
