"""Unit tests for the §6 analytical model and comparisons."""

import pytest

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
from repro.errors import ConfigurationError


class TestMessageModel:
    def test_flat(self):
        assert flat_messages_per_write(10) == 9
        assert flat_messages_per_write(1) == 0

    def test_flat_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            flat_messages_per_write(0)

    def test_two_systems_paper_value(self):
        # §6: "With our interconnection protocols n + 1 messages are
        # generated for two systems."
        assert interconnected_messages_per_write(n=10, m=2) == 11
        assert interconnected_messages_per_write(n=10, m=2, shared=False) == 11

    def test_m_systems_shared(self):
        # §6: "the number of messages for the interconnected system
        # becomes n + m - 1."
        assert interconnected_messages_per_write(n=12, m=4) == 15

    def test_m_systems_per_edge(self):
        assert interconnected_messages_per_write(n=12, m=4, shared=False) == 17

    def test_degenerate_single_system(self):
        assert interconnected_messages_per_write(n=5, m=1) == 4

    def test_bottleneck(self):
        assert bottleneck_crossings_flat(5) == 5
        assert bottleneck_crossings_interconnected() == 1


class TestLatencyModel:
    def test_flat(self):
        assert flat_latency(3.0) == 3.0

    def test_star_paper_value(self):
        # §6: "the worst case latency is 3l + 2d."
        assert star_worst_latency(l=2.0, d=5.0, m=3) == 16.0
        assert star_worst_latency(l=2.0, d=5.0, m=7) == 16.0

    def test_star_two_systems(self):
        assert star_worst_latency(l=2.0, d=5.0, m=2) == 9.0

    def test_star_one_system(self):
        assert star_worst_latency(l=2.0, d=5.0, m=1) == 2.0

    def test_chain(self):
        assert chain_worst_latency(l=1.0, d=2.0, m=4) == 10.0
        assert chain_worst_latency(l=1.0, d=2.0, m=1) == 1.0

    def test_rejects_zero_systems(self):
        with pytest.raises(ConfigurationError):
            star_worst_latency(1.0, 1.0, 0)
        with pytest.raises(ConfigurationError):
            chain_worst_latency(1.0, 1.0, 0)


class TestComparison:
    def test_ratio_and_error(self):
        comparison = Comparison("test", predicted=10.0, measured=11.0)
        assert comparison.ratio == pytest.approx(1.1)
        assert comparison.relative_error == pytest.approx(0.1)
        assert comparison.within(0.15)
        assert not comparison.within(0.05)

    def test_zero_predicted(self):
        assert Comparison("z", 0.0, 0.0).ratio == 1.0
        assert Comparison("z", 0.0, 5.0).ratio == float("inf")
