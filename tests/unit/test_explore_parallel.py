"""Unit tests for the parallel explorer and the shared DFS work loop.

The heavyweight certification (bridge-p1 exhaustion under ``--jobs``)
lives in the integration suite and CI; these tests pin the fast
invariants on the small catalogued scenarios:

* ``jobs=1`` routes to the sequential engine (same object semantics),
* parallel totals, verdicts and terminal histories are independent of
  the worker count,
* the bootstrap frontier split covers the tree (exhaustion with no
  lost or double-counted subtrees),
* the metrics finalization partitions runs by outcome and always emits
  the throughput gauge.
"""

import functools
import multiprocessing

import pytest

from repro.explore.engine import ExploreResult, _emit_metrics, explore
from repro.explore.parallel import explore_parallel
from repro.explore.scenarios import SCENARIOS, ExploreScenario
from repro.obs.metrics import MetricsRegistry
from repro.workloads.scenarios import small_fifo_scenario

SCENARIO = "bridge-noread-control"


@pytest.fixture(scope="module")
def sequential():
    return explore(SCENARIO, max_interleavings=400_000, stop_after=None)


@pytest.fixture(scope="module")
def parallel_two():
    return explore_parallel(
        SCENARIO, jobs=2, max_interleavings=400_000, stop_after=None
    )


class TestSequentialRouting:
    def test_jobs_one_matches_sequential_exactly(self, sequential):
        routed = explore_parallel(
            SCENARIO, jobs=1, max_interleavings=400_000, stop_after=None
        )
        assert routed.explored == sequential.explored
        assert routed.pruned_fingerprint == sequential.pruned_fingerprint
        assert routed.pruned_sleep == sequential.pruned_sleep
        assert routed.truncated == sequential.truncated
        assert routed.exhausted == sequential.exhausted
        assert routed.terminal_histories == sequential.terminal_histories
        assert [c.trace for c in routed.violations] == [
            c.trace for c in sequential.violations
        ]


class TestParallelDeterminism:
    def test_totals_independent_of_worker_count(self, parallel_two):
        for jobs in (3, 4):
            result = explore_parallel(
                SCENARIO, jobs=jobs, max_interleavings=400_000, stop_after=None
            )
            assert result.explored == parallel_two.explored
            assert result.pruned_fingerprint == parallel_two.pruned_fingerprint
            assert result.pruned_sleep == parallel_two.pruned_sleep
            assert result.truncated == parallel_two.truncated
            assert result.exhausted == parallel_two.exhausted
            assert result.terminal_histories == parallel_two.terminal_histories
            assert [c.trace for c in result.violations] == [
                c.trace for c in parallel_two.violations
            ]

    def test_parallel_exhausts_and_agrees_with_sequential(
        self, sequential, parallel_two
    ):
        assert sequential.exhausted
        assert parallel_two.exhausted
        assert parallel_two.ok == sequential.ok
        # Coverage is a property of the tree, not of how it was split.
        assert sequential.distinct_histories == 21
        assert parallel_two.terminal_histories == sequential.terminal_histories

    def test_parallel_finds_the_violation_sequentially_found(self):
        seq = explore("bridge-noread", max_interleavings=400_000, stop_after=1)
        par = explore_parallel(
            "bridge-noread", jobs=2, max_interleavings=400_000, stop_after=1
        )
        assert seq.violations and par.violations
        assert sorted(set(par.violations[0].patterns)) == sorted(
            set(seq.violations[0].patterns)
        )

    def test_small_tree_finishes_in_bootstrap(self, monkeypatch):
        # A tree that exhausts before the frontier ever reaches
        # UNIT_TARGET never leaves the parent process. With one poll the
        # fifo race is such a tree; the catalogued ones all outgrow the
        # frontier within their first run.
        monkeypatch.setitem(
            SCENARIOS,
            "tiny-fifo",
            ExploreScenario(
                "tiny-fifo",
                functools.partial(small_fifo_scenario, max_polls=1),
                "faulty-fifo with a single poll",
            ),
        )

        def no_workers(method):
            raise AssertionError(f"explorer started {method} workers")

        monkeypatch.setattr(multiprocessing, "get_context", no_workers)
        result = explore_parallel(
            "tiny-fifo", jobs=2, max_interleavings=400_000, stop_after=None
        )
        sequential = explore("tiny-fifo", max_interleavings=400_000, stop_after=None)
        assert result.exhausted
        assert result.runs == sequential.runs


class TestMetricsFinalization:
    def make_outcome(self, **kwargs):
        outcome = ExploreResult(scenario="s")
        for key, value in kwargs.items():
            setattr(outcome, key, value)
        return outcome

    def test_outcome_counters_partition_runs(self):
        registry = MetricsRegistry()
        outcome = self.make_outcome(
            explored=10, truncated=3, pruned_sleep=5, pruned_fingerprint=2
        )
        _emit_metrics(registry, outcome, "s", elapsed=2.0)
        values = {
            instrument.labels[0][1]: instrument.value
            for instrument in registry
            if instrument.name == "explore_runs_total"
        }
        assert values == {
            "explored": 7.0,
            "truncated": 3.0,
            "pruned_sleep": 5.0,
            "pruned_fingerprint": 2.0,
        }
        assert sum(values.values()) == outcome.runs

    def test_gauge_emitted_even_for_zero_elapsed(self):
        registry = MetricsRegistry()
        _emit_metrics(registry, self.make_outcome(explored=1), "s", elapsed=0.0)
        gauges = [
            instrument
            for instrument in registry
            if instrument.name == "explore_runs_per_second"
        ]
        assert len(gauges) == 1
        assert gauges[0].value == 0.0

    def test_distinct_histories_gauge(self):
        registry = MetricsRegistry()
        outcome = self.make_outcome(explored=3, terminal_histories={("a",), ("b",)})
        _emit_metrics(registry, outcome, "s", elapsed=1.0)
        gauge = next(
            instrument
            for instrument in registry
            if instrument.name == "explore_distinct_histories"
        )
        assert gauge.value == 2

    def test_gauge_reports_throughput(self):
        registry = MetricsRegistry()
        _emit_metrics(registry, self.make_outcome(explored=8), "s", elapsed=2.0)
        gauge = next(
            instrument
            for instrument in registry
            if instrument.name == "explore_runs_per_second"
        )
        assert gauge.value == pytest.approx(4.0)
