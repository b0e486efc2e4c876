"""Extension experiment X4: coalescing queued pairs on dial-up links.

§1.1 says updates "can be queued up to be propagated at a later time";
this extension merges consecutive same-variable pairs in the IS outbox
while the link is down. Measured: link traffic saved as a function of
write burstiness, with causality verified on every configuration.
"""

from repro.experiments import coalescing_burst as run_burst


def test_x4_coalescing_saves_link_traffic(benchmark):
    sent_coalesced, merged, causal = benchmark(run_burst, True, 8)
    sent_plain, _, causal_plain = run_burst(False, 8)
    print(
        f"\nX4: burst of 8 rewrites x 2 vars over a 0.1%-duty link: "
        f"{sent_plain} pairs plain vs {sent_coalesced} coalesced "
        f"({merged} merged)"
    )
    assert causal and causal_plain
    assert sent_coalesced < sent_plain
    # Per variable only the latest queued value needs to cross (plus any
    # pairs that slipped through while the link was briefly up).
    assert sent_coalesced <= 2 + 2  # ~one pair per variable, small slack


def test_x4_savings_grow_with_burstiness(benchmark):
    def sweep():
        return [
            (rewrites, run_burst(False, rewrites)[0], run_burst(True, rewrites)[0])
            for rewrites in (2, 4, 8, 16)
        ]

    rows = benchmark(sweep)
    print("\nX4 sweep: rewrites -> (plain pairs, coalesced pairs)")
    for rewrites, plain, coalesced in rows:
        print(f"  {rewrites:>3} -> ({plain:>3}, {coalesced:>3})")
    plain_counts = [plain for _, plain, _ in rows]
    coalesced_counts = [coalesced for *_, coalesced in rows]
    assert plain_counts == sorted(plain_counts)
    assert max(coalesced_counts) <= min(plain_counts)
