"""EXPERIMENTS.md generation: run every experiment, tabulate paper vs measured.

Run by ``python -m repro experiments``. Each section also checks the
claims its table shows and raises :class:`ClaimError` when one fails.
"""

from __future__ import annotations

import time

from repro.analysis import (
    Comparison,
    bottleneck_crossings_flat,
    bottleneck_crossings_interconnected,
    chain_worst_latency,
    flat_latency,
    flat_messages_per_write,
    interconnected_messages_per_write,
    star_worst_latency,
)
from repro import experiments
from repro.checker import check_causal
from repro.errors import ClaimError
from repro.protocols import get
from repro.workloads import WorkloadSpec, build_interconnected
from repro.workloads.scenarios import run_until_quiescent

L, D = experiments.LATENCY_L, experiments.LATENCY_D


def claim(holds: bool, what: str) -> None:
    """Raise :class:`ClaimError` naming *what* unless it holds (``-O``-proof)."""
    if not holds:
        raise ClaimError(what)


def md_table(rows: list[Comparison]) -> str:
    """The model-vs-measured table; every row must meet its model exactly."""
    lines = [
        "| configuration | model | measured | ratio |",
        "|---|---:|---:|---:|",
    ]
    for row in rows:
        claim(row.within(0.0), f"{row.label} measured {row.measured:.2f}, model {row.predicted:.2f}")
        lines.append(
            f"| {row.label} | {row.predicted:.2f} | {row.measured:.2f} | {row.ratio:.2f} |"
        )
    return "\n".join(lines)


def experiment_e1() -> str:
    rows = [
        Comparison(
            f"flat, n={n}", flat_messages_per_write(n), experiments.messages_per_write_flat(n)
        )
        for n in (2, 4, 8, 16)
    ]
    return md_table(rows)


def experiment_e2() -> str:
    rows = []
    for shared, label in ((True, "shared"), (False, "per-edge")):
        for m in (2, 3, 4, 5):
            measured, n = experiments.messages_per_write_interconnected(m, shared)
            rows.append(
                Comparison(
                    f"m={m} systems, {label} IS (n={n})",
                    interconnected_messages_per_write(n, m, shared=shared),
                    measured,
                )
            )
    return md_table(rows)


def experiment_e3() -> str:
    rows = []
    for per_side in (2, 4, 8):
        rows.append(
            Comparison(
                f"flat split {per_side}+{per_side}",
                bottleneck_crossings_flat(per_side),
                experiments.crossings_per_write_flat(per_side),
            )
        )
        rows.append(
            Comparison(
                f"bridged {per_side}+{per_side}",
                bottleneck_crossings_interconnected(),
                experiments.crossings_per_write_bridged(per_side),
            )
        )
    return md_table(rows)


def experiment_e4() -> str:
    rows = [Comparison("flat system", flat_latency(L), experiments.latency_flat())]
    for m in (3, 4, 5):
        rows.append(
            Comparison(
                f"star m={m}, per-edge IS (paper: 3l+2d)",
                star_worst_latency(L, D, m),
                experiments.latency_tree(m, "star", False),
            )
        )
    rows.append(
        Comparison(
            "star m=4, shared IS (refined: 2l+2d)",
            2 * L + 2 * D,
            experiments.latency_tree(4, "star", True),
        )
    )
    for m in (3, 5):
        rows.append(
            Comparison(
                f"chain m={m}, per-edge IS (m*l+(m-1)*d)",
                chain_worst_latency(L, D, m),
                experiments.latency_tree(m, "chain", False),
            )
        )
    return md_table(rows)


def experiment_e5() -> str:
    alone = experiments.response_time(["vector-causal"])
    bridged = experiments.response_time(["vector-causal", "vector-causal"])
    seq_alone = experiments.response_time(["aw-sequential"])
    seq_bridged = experiments.response_time(["aw-sequential", "vector-causal"])
    rows = [
        Comparison("vector protocol mean (alone -> bridged)", alone.mean, bridged.mean),
        Comparison("vector protocol max (alone -> bridged)", alone.maximum, bridged.maximum),
        Comparison("sequential protocol mean (alone -> bridged)", seq_alone.mean, seq_bridged.mean),
    ]
    claim(seq_alone.mean > 0, "sequential protocol: writes block, so the mean response is above 0")
    return md_table(rows)


def experiment_e6_e7() -> str:
    lines = ["| configuration | global ops | causal? |", "|---|---:|---|"]
    configurations = [
        (["vector-causal", "vector-causal"], "star", True),
        (["vector-causal", "aw-sequential"], "star", True),
        (["vector-causal"] * 4, "star", True),
        (["vector-causal"] * 5, "chain", False),
        (["vector-causal", "parametrized-causal", "aw-sequential", "delayed-causal"], "star", True),
    ]
    spec = WorkloadSpec(processes=3, ops_per_process=6, write_ratio=0.5)
    for protocols, topology, shared in configurations:
        result = build_interconnected(protocols, spec, topology=topology, shared=shared, seed=7)
        run_until_quiescent(result.sim, result.systems)
        verdict = check_causal(result.global_history)
        label = " + ".join(protocols) if len(protocols) <= 2 else (
            f"{len(protocols)} systems ({topology}, {'shared' if shared else 'per-edge'})"
        )
        lines.append(f"| {label} | {len(result.global_history)} | {'yes' if verdict.ok else 'NO'} |")
        claim(verdict.ok, f"{label}: the union is causal")
    return "\n".join(lines)


def experiment_e8() -> str:
    lines = ["| IS-protocol variant | violation rate (10 seeds) |", "|---|---:|"]
    for read_before_send, label in ((True, "with read step (paper)"), (False, "read step ablated")):
        violations = round(experiments.section3_violation_rate(read_before_send, range(10)) * 10)
        lines.append(f"| {label} | {violations}/10 |")
        claim(violations == (0 if read_before_send else 10), f"{label}: {violations}/10 violations")
    return "\n".join(lines)


def experiment_e9() -> str:
    lines = ["| configuration | violation rate (20 lag seeds) |", "|---|---:|"]
    for use_pre_update, label in (
        (False, "IS-protocol 1 misused on non-causal-updating MCS"),
        (True, "IS-protocol 2 (pre-update reads)"),
    ):
        violations = round(experiments.lemma1_violation_rate(use_pre_update, range(20)) * 20)
        lines.append(f"| {label} | {violations}/20 |")
        # Protocol 2 is sound; the misuse must show in over 20% of timings.
        claim(violations == 0 if use_pre_update else violations > 4, f"{label}: {violations}/20")
    return "\n".join(lines)


def experiment_e10() -> str:
    verdicts = [experiments.sequential_bridge_random(seed) for seed in range(8)]
    causal_ok = sum(causal for causal, _ in verdicts)
    still_sequential = sum(sequential for _, sequential in verdicts)
    dekker_causal, dekker_sequential = experiments.sequential_bridge_dekker()
    lines = [
        "| property | result |",
        "|---|---|",
        f"| union causal (8 random workloads) | {causal_ok}/8 |",
        f"| union still sequential (8 random workloads) | {still_sequential}/8 |",
        f"| cross-system Dekker race: causal | {'yes' if dekker_causal else 'NO'} |",
        f"| cross-system Dekker race: sequential | {'yes' if dekker_sequential else 'no'} |",
    ]
    claim(causal_ok == 8, f"union causal (8 random workloads): {causal_ok}/8")
    claim(dekker_causal and not dekker_sequential, "Dekker race: causal but not sequential")
    return "\n".join(lines)


def experiment_e11() -> str:
    lines = [
        "| link duty cycle | max queued pairs | mean pair delay | causal? |",
        "|---:|---:|---:|---|",
    ]
    runs = {up: experiments.dialup_run(200.0, up) for up in (1.0, 0.5, 0.1, 0.02)}
    for up_fraction, (_, queue_depth, delay, causal) in runs.items():
        lines.append(
            f"| {up_fraction:.0%} | {queue_depth} | {delay:.1f} | {'yes' if causal else 'NO'} |"
        )
        claim(causal, f"{up_fraction:.0%}: causal")
    delays = [delay for _, _, delay, _ in runs.values()]
    claim(delays == sorted(delays), "mean pair delay grows as the duty cycle shrinks")
    up, down = runs[1.0], runs[0.02]
    claim(down[1] > up[1] and down[2] > up[2], "2% queues more pairs, for longer, than 100%")
    return "\n".join(lines)


def experiment_x1() -> str:
    lines = [
        "| replication factor | value msgs/write | notices/write | remote reads | mean response |",
        "|---:|---:|---:|---:|---:|",
    ]
    n = 6  # processes per run, so factor n is full replication
    rows = {factor: experiments.partial_replication(factor) for factor in (1, 2, 4, n)}
    for factor, row in rows.items():
        lines.append(
            f"| {factor} | {row['value_msgs_per_write']:.2f} "
            f"| {row['notice_msgs_per_write']:.2f} | {row['remote_reads']} "
            f"| {row['mean_response']:.3f} |"
        )
        fanout = row["value_msgs_per_write"] + row["notice_msgs_per_write"]
        claim(row["causal"] and abs(fanout - (n - 1)) < 1e-9, f"factor {factor}: causal, fan-out n-1")
    values = [row["value_msgs_per_write"] for row in rows.values()]
    claim(values == sorted(values) and values[-1] == n - 1, "value msgs/write grow to n-1 at n")
    sparse, full = rows[1], rows[n]
    claim(sparse["remote_reads"] > full["remote_reads"], "factor 1 reads remotely more than n")
    claim(sparse["mean_response"] > full["mean_response"] == 0, "remote reads cost response time")
    return "\n".join(lines)


def experiment_x2() -> str:
    lines = [
        "| protocol | workload | value msgs/write | mean response | causal? |",
        "|---|---|---:|---:|---|",
    ]
    rows = []
    for protocol in ("vector-causal", "invalidation-causal"):
        for write_ratio, label in ((0.8, "write-heavy"), (0.3, "read-heavy")):
            row = experiments.invalidation_traffic(protocol, write_ratio)
            rows.append(row)
            lines.append(
                f"| {protocol} | {label} | {row['value_msgs_per_write']:.2f} "
                f"| {row['mean_response']:.3f} | {'yes' if row['causal'] else 'NO'} |"
            )
            claim(row["causal"], f"{protocol}, {label}: causal")
    vector_write, vector_read, invalidation_write, invalidation_read = rows
    claim(
        invalidation_write["value_msgs_per_write"] < vector_write["value_msgs_per_write"],
        "write-heavy: invalidation moves fewer values than propagation",
    )
    claim(
        invalidation_read["mean_response"] > vector_read["mean_response"] == 0,
        "read-heavy: invalidation pays fetch round trips, propagation none",
    )
    return "\n".join(lines)


def experiment_x7() -> str:
    reorder_rate = experiments.reordering_violation_rate()
    naive_broken, naive_runs = experiments.duplication_breakage_rate(False)
    hard_broken, hard_runs = experiments.duplication_breakage_rate(True)
    claim(reorder_rate > 0, "a reordering channel violates causality on some seed")
    claim(naive_broken > 0 and hard_broken == 0, "duplicates break naive Propagate_in, not dedup")
    lines = [
        "| channel assumption broken | outcome |",
        "|---|---|",
        f"| FIFO (reordering channel) | {reorder_rate:.0%} of seeds violate causality |",
        f"| exactly-once (duplicating channel), naive Propagate_in | {naive_broken}/{naive_runs} runs break value-uniqueness |",
        f"| exactly-once, with dedup_incoming hardening | {hard_broken}/{hard_runs} runs break |",
    ]
    return "\n".join(lines)


def experiment_x4() -> str:
    lines = [
        "| rewrites per variable | pairs crossing (plain) | pairs crossing (coalesced) |",
        "|---:|---:|---:|",
    ]
    plains, mergeds = [], []
    for rewrites in (2, 4, 8, 16):
        plain, _, plain_causal = experiments.coalescing_burst(False, rewrites)
        merged, _, merged_causal = experiments.coalescing_burst(True, rewrites)
        lines.append(f"| {rewrites} | {plain} | {merged} |")
        # About one pair per variable crosses: 2 variables, plus slack.
        claim(plain_causal and merged_causal and merged <= 4, f"{rewrites}: causal, {merged} <= 4")
        plains.append(plain)
        mergeds.append(merged)
    claim(plains == sorted(plains) and max(mergeds) < min(plains), "coalescing crosses fewer pairs")
    return "\n".join(lines)


def experiment_x3() -> str:
    lines = [
        "| protocol | msgs/write | mean response | causal | CCv | sequential |",
        "|---|---:|---:|---|---|---|",
    ]
    rows = {}
    for protocol in experiments.ZOO_PROTOCOLS:
        row = rows[protocol] = experiments.run_zoo_member(protocol)
        seq = "-" if row["sequential"] is None else ("yes" if row["sequential"] else "no")
        lines.append(
            f"| {row['protocol']} | {row['msgs_per_write']:.2f} "
            f"| {row['mean_response']:.2f} | {'yes' if row['causal'] else 'NO'} "
            f"| {'yes' if row['ccv'] else 'no'} | {seq} |"
        )
        if get(protocol).consistency in ("causal", "sequential"):
            claim(row["causal"], f"{protocol}: claims causal consistency, so causal")
    sequential = rows["aw-sequential"]
    claim(sequential["sequential"] and sequential["ccv"], "aw-sequential: sequential and CCv")
    claim(
        sequential["mean_response"] > rows["vector-causal"]["mean_response"] == 0,
        "write-blocking aw-sequential pays response time, vector-causal none",
    )
    return "\n".join(lines)


SECTIONS = [
    (
        "E1 — flat message count (§6)",
        "Paper: a flat causal system with `n` MCS-processes generates `n-1` messages per write.",
        experiment_e1,
    ),
    (
        "E2 — interconnected message count (§6)",
        "Paper: two systems `n+1`; `m` systems `n+m-1` (one shared IS-process per system). "
        "The §5 pairwise construction (one IS-process per system per link) costs `n+2m-3`.",
        experiment_e2,
    ),
    (
        "E3 — bottleneck-link crossings (§6)",
        "Paper: flat split system `n/2` crossings per write; interconnected exactly `1`.",
        experiment_e3,
    ),
    (
        "E4 — visibility latency (§6)",
        "Paper: flat `l`; star worst case `3l + 2d`. Measured with `l=2`, `d=5`. "
        "Shared IS-processes forward on receipt and beat the bound (`2l + 2d`).",
        experiment_e4,
    ),
    (
        "E5 — response time (§6)",
        "Paper: the interconnection does not affect local operation response times.",
        experiment_e5,
    ),
    (
        "E6/E7 — Theorem 1 and Corollary 1",
        "The union of causal systems under the IS-protocols is causal — pairs, trees, "
        "mixed protocols. (The property suite re-checks this over thousands of random runs.)",
        experiment_e6_e7,
    ),
    (
        "E8 — the §3 counterexample (ablation)",
        "Dropping `Propagate_out`'s read leaves propagated values causally untethered; the "
        "distant reader observes the overwrite `u` before the original `v`.",
        experiment_e8,
    ),
    (
        "E9 — Lemma 1 / Property 1",
        "A causal MCS protocol without Causal Updating propagates causally ordered writes "
        "out of order under IS-protocol 1; IS-protocol 2's pre-update reads force causal "
        "application order at the IS replica.",
        experiment_e9,
    ),
    (
        "E10 — interconnecting sequential systems (§1.1)",
        "Sequential consistency implies causal; the union is causal but, in general, no "
        "longer sequential.",
        experiment_e10,
    ),
    (
        "X1 — partial replication economics (extension, ref [8])",
        "Values travel only to replica holders; timestamp-only notices keep causal "
        "gating sound; remote reads pay latency. Causality holds at every factor.",
        experiment_x1,
    ),
    (
        "X2 — invalidation vs propagation (extension, §1 remark)",
        "Invalidation moves fewer values on write-heavy workloads and pays fetch round "
        "trips on read-heavy ones; the fetch-on-invalidate IS adapter restores "
        "Theorem 1 at the bridge.",
        experiment_x2,
    ),
    (
        "X3 — the protocol zoo",
        "Every protocol, one workload: cost vs consistency. Verdicts are measured by "
        "the checkers on this run (weak protocols may pass on benign timings; their "
        "violations are pinned deterministically in the test suite).",
        experiment_x3,
    ),
    (
        "X4 — coalescing queued pairs (extension, §1.1 remark)",
        "While the IS link is down, adjacent same-variable pairs in the outbox are "
        "merged; only the latest value per burst crosses when the link returns. "
        "Causality is preserved (adjacency-limited merging keeps the causal pair order).",
        experiment_x4,
    ),
    (
        "X7 — necessity of the reliable-FIFO channel (§1.1)",
        "Breaking each channel assumption in isolation: non-FIFO delivery reorders the "
        "propagated pairs (the Lemma 1 failure mode); at-least-once delivery double-"
        "writes values unless Propagate_in is made idempotent. The constructive "
        "converse — rebuilding the assumed channel from lossy parts and surviving "
        "IS-process crashes — is the resilience layer (`repro.resilience`, "
        "`docs/resilience.md`), exercised by `python -m repro faults`.",
        experiment_x7,
    ),
    (
        "E11 — dial-up links (§1.1)",
        "The IS channel may be unavailable for long periods: pairs queue, order is "
        "preserved, causality is never traded — only latency grows.",
        experiment_e11,
    ),
]

def generate_report(progress=None) -> str:
    """Run all experiments and return the full EXPERIMENTS.md markdown."""
    parts = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Generated by `python -m repro experiments`. Every number below is",
        "measured on the deterministic simulator; 'model' columns are the paper's",
        "§6 closed forms (or the formal claims of §3–§5). The paper reports no",
        "empirical tables, so its analytical claims *are* the evaluation; the",
        "vector-clock causal protocol matches the paper's cost assumptions",
        "(`x-1` messages per write, none per read), hence ratios of exactly 1.00",
        "are expected — and obtained.",
        "",
    ]
    start = time.time()
    for title, intro, runner in SECTIONS:
        if progress is not None:
            progress(title)
        parts.append(f"## {title}")
        parts.append("")
        parts.append(intro)
        parts.append("")
        try:
            parts.append(runner())
        except ClaimError as error:
            raise ClaimError(f"{title}: {error}") from None
        parts.append("")
    parts.append(f"_Total generation time: {time.time() - start:.1f}s (wall)._")
    parts.append("")
    return "\n".join(parts)


__all__ = ["generate_report", "SECTIONS", "md_table"]
