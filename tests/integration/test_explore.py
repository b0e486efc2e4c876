"""End-to-end exploration campaigns: the acceptance surface of the
schedule explorer.

Five layers, mirroring docs/explorer.md:

* **Exhaustion** — the 2 systems x 2 processes x 2 writes bridge is
  searched to completion under both IS-protocols with zero violations
  (Theorem 1 certified at small scope, including the proof
  construction).
* **Negative controls** — the explorer *finds* the paper's §3 no-read
  race and the faulty sender-FIFO transitivity race, and delta-debugging
  shrinks each counterexample to a handful of decisions that replay
  deterministically. Searched to exhaustion, the no-read cast violates
  in some interleavings but not all, and its control (the IS read
  restored) in none.
* **Corpus regression** — every minimized schedule in ``tests/corpus/``
  is a ``repro-schedule/2`` tag trace and replays strictly (same
  violation patterns as recorded).
* **Pinned totals** — a budget-capped bridge-p1 search, sequential and
  with two workers, reaches exactly the explored, pruned and distinct
  counts it reached before the decision-point fast path; the exhaustive
  bridge-p1 and bridge-p2 searches reach exactly their explored, run
  and distinct-history totals.
* **No cyclic garbage** — every scenario a search or a shrink builds is
  closed when it is done with, so the cyclic collector finds nothing.
"""

import gc
import json

import pytest

from repro.explore import (
    SCENARIOS,
    explore,
    get_scenario,
    load_schedule,
    replay_schedule,
    run_with_trace,
    shrink_counterexample,
)

#: bridge-p1 at seed 0 with a 500-run budget and ``stop_after=None``:
#: (explored, fingerprint-pruned, sleep-pruned, distinct terminal
#: histories) per worker count. Parallel units each get the budget.
BRIDGE_P1_500 = {1: (99, 209, 192, 6), 2: (2643, 6108, 8195, 84)}

#: bridge-p1 and bridge-p2 searched to exhaustion: (explored, runs,
#: distinct terminal histories).
EXHAUSTED_BRIDGE_TOTALS = (4_726, 80_952, 120)


@pytest.mark.parametrize("jobs", sorted(BRIDGE_P1_500))
def test_bridge_p1_budgeted_totals_are_pinned(jobs):
    result = explore("bridge-p1", jobs=jobs, max_interleavings=500, stop_after=None)
    assert not result.violations, result.summary()
    assert (
        result.explored,
        result.pruned_fingerprint,
        result.pruned_sleep,
        result.distinct_histories,
    ) == BRIDGE_P1_500[jobs], result.summary()


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_search_leaves_no_cyclic_garbage(scenario):
    # Each run is closed after its verdict, pruned or not, so reference
    # counting frees it: the cyclic collector finds nothing afterwards.
    gc.collect()
    gc.disable()
    try:
        result = explore(scenario, max_interleavings=300, stop_after=None)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert result.runs == 300
    assert garbage == 0


@pytest.mark.parametrize(
    "scenario", sorted(name for name, entry in SCENARIOS.items() if entry.expect_violation)
)
def test_shrinking_leaves_no_cyclic_garbage(scenario):
    found = explore(scenario, max_interleavings=20_000)
    gc.collect()
    gc.disable()
    try:
        shrunk = shrink_counterexample(found.violations[0])
        garbage = gc.collect()
    finally:
        gc.enable()
    assert shrunk.decisions < found.violations[0].decisions
    assert garbage == 0


@pytest.mark.slow
class TestExhaustiveBridge:
    """The CI smoke property: small-scope certification of Theorem 1."""

    @pytest.mark.parametrize("scenario", ["bridge-p1", "bridge-p2"])
    def test_bridge_exhausts_clean(self, scenario):
        result = explore(
            scenario,
            max_interleavings=400_000,
            stop_after=None,
            check_theorem1=True,
        )
        assert result.exhausted, result.summary()
        assert not result.violations, result.summary()
        # The space must be genuinely combinatorial (a scenario that
        # admits a handful of interleavings would certify nothing) and
        # the reductions must actually be pruning. Both IS-protocols
        # exhaust the same space, so a reduction, cache or fast path that
        # changes what the search visits shows up in the pinned totals.
        assert (
            result.explored,
            result.runs,
            result.distinct_histories,
        ) == EXHAUSTED_BRIDGE_TOTALS, result.summary()
        assert result.pruned_fingerprint > 0
        assert result.pruned_sleep > 0


class TestNegativeControls:
    """The explorer must find the races the paper warns about."""

    def test_noread_ablation_found_and_shrinks(self):
        result = explore("bridge-noread", stop_after=1, max_interleavings=5_000)
        assert result.violations, result.summary()
        counterexample = result.violations[0]
        assert "CyclicHB" in counterexample.patterns

        shrunk = shrink_counterexample(counterexample)
        assert shrunk.decisions <= 10
        assert shrunk.shrunk_from == counterexample.decisions
        assert set(shrunk.patterns) & set(counterexample.patterns)

    def test_noread_control_is_clean(self):
        # Same cast with the IS read restored: no interleaving violates.
        result = explore(
            "bridge-noread-control", stop_after=None, max_interleavings=20_000
        )
        assert result.exhausted, result.summary()
        assert not result.violations, result.summary()

    def test_noread_violates_in_some_interleavings_but_not_all(self):
        # The §3 race is an ordering phenomenon: without the IS read, some
        # interleavings of the cast violate and the rest stay causal.
        result = explore("bridge-noread", stop_after=None)
        assert result.exhausted, result.summary()
        assert 0 < len(result.violations) < result.explored, result.summary()

    def test_faulty_fifo_found_and_shrinks(self):
        result = explore("faulty-fifo", stop_after=1, max_interleavings=5_000)
        assert result.violations, result.summary()
        counterexample = result.violations[0]
        assert "WriteHBInitRead" in counterexample.patterns

        shrunk = shrink_counterexample(counterexample)
        assert shrunk.decisions <= 9

    def test_shrunk_trace_replays_deterministically(self):
        result = explore("faulty-fifo", stop_after=1, max_interleavings=5_000)
        shrunk = shrink_counterexample(result.violations[0])
        factory = get_scenario("faulty-fifo").factory

        patterns_seen = []
        for _ in range(3):
            _, verdict = run_with_trace(factory, shrunk.trace)
            patterns_seen.append(
                tuple(sorted({v.pattern for v in verdict.violations}))
            )
        assert patterns_seen[0] == patterns_seen[1] == patterns_seen[2]
        assert "WriteHBInitRead" in patterns_seen[0]


class TestCorpusRegression:
    def test_corpus_schedule_replays_strictly(self, corpus_schedule, replay_corpus):
        verdict = replay_corpus(corpus_schedule)
        # Every checked-in schedule is a minimized counterexample; strict
        # replay has already verified the recorded patterns reproduce.
        assert not verdict.ok

    def test_corpus_is_minimized(self, corpus_schedule):
        raw = json.loads(corpus_schedule.read_text(encoding="utf-8"))
        assert raw["format"] == "repro-schedule/2"
        loaded = load_schedule(corpus_schedule)
        assert len(loaded.trace) <= 10
        assert all(isinstance(tag, str) for tag in loaded.trace)
        assert loaded.expected_patterns
