"""Exhaustive small-universe verification of the consistency lattice."""

import pytest

from repro.lattice import INCLUSIONS, classify, enumerate_histories, run_census
from repro.memory.operations import INITIAL_VALUE
from tests.helpers import ops


class TestEnumeration:
    def test_counts_grow_with_length(self):
        one = sum(1 for _ in enumerate_histories(1))
        two = sum(1 for _ in enumerate_histories(2))
        assert one < two

    def test_writes_take_canonical_values(self):
        for history in enumerate_histories(3):
            values = [op.value for op in history if op.is_write]
            assert values == list(range(1, len(values) + 1))

    def test_reads_draw_from_written_or_initial(self):
        for history in enumerate_histories(3):
            write_values = {op.value for op in history if op.is_write}
            for op in history:
                if op.is_read:
                    assert op.value is INITIAL_VALUE or op.value in write_values | {
                        value for value in range(1, 4)
                    }

    def test_per_process_seq_valid(self):
        for history in enumerate_histories(3):
            history.validate()


class TestClassify:
    def test_labels_cover_models_and_sessions(self):
        verdicts = classify(ops(("A", "w", "x", 1)))
        assert set(verdicts) >= {
            "sequential",
            "causal",
            "ccv",
            "pram",
            "cache",
            "session:read-your-writes",
        }

    def test_write_only_history_in_every_model(self):
        verdicts = classify(ops(("A", "w", "x", 1), ("B", "w", "x", 2)))
        assert all(verdicts.values())


class TestCensus:
    def test_depth_4_single_variable_no_broken_laws(self):
        census = run_census(4)
        assert census.total > 1500
        assert census.broken_laws == []

    @pytest.mark.slow
    def test_depth_5_single_variable_no_broken_laws(self):
        census = run_census(5)
        assert census.total > 15_000
        assert census.broken_laws == []

    @pytest.mark.slow
    def test_depth_4_two_variables_no_broken_laws(self):
        census = run_census(4, variables=("x", "y"))
        assert census.total > 10_000
        assert census.broken_laws == []

    def test_all_inclusions_declared(self):
        stronger = {name for name, _ in INCLUSIONS}
        assert "sequential" in stronger and "causal" in stronger

    def test_separations_witnessed(self):
        census = run_census(4)
        # The lattice is strict: each inclusion has a separating history.
        assert census.counts.get("causal-not-sequential", 0) > 0
        assert census.counts.get("pram-not-causal", 0) > 0
        assert census.counts.get("causal-not-ccv", 0) > 0

    def test_counts_ordered_by_strength(self):
        census = run_census(4)
        assert census.counts["sequential"] <= census.counts["causal"]
        assert census.counts["causal"] <= census.counts["pram"]

    def test_causal_subset_of_all_session_guarantees(self):
        census = run_census(4)
        for guarantee in (
            "session:read-your-writes",
            "session:monotonic-reads",
            "session:monotonic-writes",
            "session:writes-follow-reads",
        ):
            assert census.counts[guarantee] >= census.counts["causal"]
