"""Unit tests for the polynomial causal-memory checker (hand-built
histories, and simulated vector-causal runs of growing size)."""

import pytest

from repro.checker import causal_order, check_causal
from repro.memory.operations import INITIAL_VALUE
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import profiling
from repro.workloads import WorkloadSpec, build_interconnected
from repro.workloads.scenarios import run_until_quiescent
from tests.helpers import ops


class TestCausalOk:
    def test_empty_history(self):
        assert check_causal(ops()).ok

    def test_single_write_read(self):
        assert check_causal(ops(("A", "w", "x", 1), ("B", "r", "x", 1))).ok

    def test_read_own_write(self):
        assert check_causal(ops(("A", "w", "x", 1), ("A", "r", "x", 1))).ok

    def test_initial_reads_before_any_write_visible(self):
        history = ops(
            ("B", "r", "x", INITIAL_VALUE),
            ("A", "w", "x", 1),
            ("B", "r", "x", 1),
        )
        assert check_causal(history).ok

    def test_concurrent_writes_seen_in_different_orders(self):
        # Causal memory famously allows different processes to disagree on
        # the order of concurrent writes (unlike sequential consistency).
        history = ops(
            ("A", "w", "x", 1),
            ("B", "w", "x", 2),
            ("C", "r", "x", 1),
            ("C", "r", "x", 2),
            ("D", "r", "x", 2),
            ("D", "r", "x", 1),
        )
        assert check_causal(history).ok

    def test_transitive_chain_respected(self):
        history = ops(
            ("A", "w", "x", 1),
            ("B", "r", "x", 1),
            ("B", "w", "y", 2),
            ("C", "r", "y", 2),
            ("C", "r", "x", 1),
        )
        assert check_causal(history).ok

    def test_stale_read_of_concurrent_write_ok(self):
        history = ops(
            ("A", "w", "x", 1),
            ("B", "w", "y", 2),
            ("C", "r", "y", 2),
            ("C", "r", "x", INITIAL_VALUE),
        )
        assert check_causal(history).ok


class TestCausalViolations:
    def test_missed_causal_write_init_read(self):
        # w(x)1 -> (B reads it, writes y) -> C sees y but then reads x = initial.
        history = ops(
            ("A", "w", "x", 1),
            ("B", "r", "x", 1),
            ("B", "w", "y", 2),
            ("C", "r", "y", 2),
            ("C", "r", "x", INITIAL_VALUE),
        )
        result = check_causal(history)
        assert not result.ok
        assert result.violations[0].pattern == "WriteHBInitRead"
        assert result.violations[0].process == "C"

    def test_causally_overwritten_value_read(self):
        # w(x)1 ->co w(x)2 but C reads 2 then 1.
        history = ops(
            ("A", "w", "x", 1),
            ("B", "r", "x", 1),
            ("B", "w", "x", 2),
            ("C", "r", "x", 2),
            ("C", "r", "x", 1),
        )
        result = check_causal(history)
        assert not result.ok
        assert result.violations[0].pattern == "CyclicHB"

    def test_own_program_order_violated(self):
        history = ops(
            ("A", "w", "x", 1),
            ("A", "w", "x", 2),
            ("B", "r", "x", 2),
            ("B", "r", "x", 1),
        )
        assert not check_causal(history).ok

    def test_read_does_not_go_back_past_own_write(self):
        history = ops(
            ("B", "r", "x", 1),
            ("A", "w", "x", 1),
            ("B", "w", "x", 2),
            ("B", "r", "x", 1),
        )
        assert not check_causal(history).ok

    def test_thin_air_read(self):
        result = check_causal(ops(("A", "r", "x", 42)))
        assert not result.ok
        assert result.violations[0].pattern == "ThinAirRead"

    def test_violation_reported_per_process(self):
        history = ops(
            ("A", "w", "x", 1),
            ("B", "r", "x", 1),
            ("B", "w", "y", 2),
            ("C", "r", "y", 2),
            ("C", "r", "x", INITIAL_VALUE),
            ("D", "r", "y", 2),
            ("D", "r", "x", INITIAL_VALUE),
        )
        result = check_causal(history)
        assert {violation.process for violation in result.violations} == {"C", "D"}

    def test_summary_mentions_pattern(self):
        history = ops(
            ("A", "w", "x", 1),
            ("B", "r", "x", 1),
            ("B", "w", "x", 2),
            ("C", "r", "x", 2),
            ("C", "r", "x", 1),
        )
        result = check_causal(history)
        assert "VIOLATED" in result.summary()
        assert "CyclicHB" in result.summary()


class TestCausalOrder:
    def test_program_order_edges(self):
        history = ops(("A", "w", "x", 1), ("A", "w", "y", 2))
        operations, order = causal_order(history)
        assert order.has(0, 1)
        assert not order.has(1, 0)

    def test_reads_from_edges(self):
        history = ops(("A", "w", "x", 1), ("B", "r", "x", 1))
        _, order = causal_order(history)
        assert order.has(0, 1)

    def test_transitivity(self):
        history = ops(
            ("A", "w", "x", 1),
            ("B", "r", "x", 1),
            ("B", "w", "y", 2),
            ("C", "r", "y", 2),
        )
        _, order = causal_order(history)
        assert order.has(0, 3)  # w(x)1 ->co C's read of y

    def test_concurrent_ops_unordered(self):
        history = ops(("A", "w", "x", 1), ("B", "w", "y", 2))
        _, order = causal_order(history)
        assert not order.has(0, 1)
        assert not order.has(1, 0)


class TestSaturationObservability:
    def test_passes_and_edges_are_reported_per_process(self):
        # C and D see the concurrent writes in opposite orders: each
        # saturation adds one write-to-write edge in its first pass and
        # confirms the fixpoint in the second. A and B issue no reads and
        # are not saturated.
        history = ops(
            ("A", "w", "x", 1),
            ("B", "w", "x", 2),
            ("C", "r", "x", 1),
            ("C", "r", "x", 2),
            ("D", "r", "x", 2),
            ("D", "r", "x", 1),
        )
        registry = MetricsRegistry()
        with profiling(registry):
            assert check_causal(history).ok
        passes = registry.histogram("profile_size", site="checker.saturation_passes")
        edges = registry.histogram("profile_size", site="checker.saturation_edges")
        assert (passes.count, passes.sum) == (2, 4)
        assert (edges.count, edges.sum) == (2, 2)

    def test_a_violation_still_reports_its_passes(self):
        history = ops(
            ("A", "w", "x", 1),
            ("A", "w", "y", 1),
            ("B", "r", "y", 1),
            ("B", "r", "x", INITIAL_VALUE),
        )
        registry = MetricsRegistry()
        with profiling(registry):
            assert not check_causal(history).ok
        passes = registry.histogram("profile_size", site="checker.saturation_passes")
        edges = registry.histogram("profile_size", site="checker.saturation_edges")
        assert (passes.count, passes.sum) == (1, 1)
        assert (edges.count, edges.sum) == (1, 0)


class TestSimulatedRuns:
    @pytest.mark.parametrize("processes, ops_per_process", [(3, 10), (5, 20), (8, 40), (10, 30)])
    def test_vector_causal_run_is_causal(self, processes, ops_per_process):
        spec = WorkloadSpec(processes=processes, ops_per_process=ops_per_process, write_ratio=0.4)
        result = build_interconnected(["vector-causal"], spec, seed=1)
        run_until_quiescent(result.sim, result.systems)
        assert len(result.history) == processes * ops_per_process
        assert check_causal(result.history).ok
