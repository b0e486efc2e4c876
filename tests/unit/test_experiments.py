"""Unit tests for the experiment-runner library (repro.experiments).

``python -m repro experiments`` runs these at full scale and checks the
paper's claims on their results; here the contracts are pinned
cheaply: return shapes, exact model agreement on small instances, and
determinism (same seed, same numbers).
"""

from repro.analysis import (
    flat_messages_per_write,
    interconnected_messages_per_write,
    star_worst_latency,
)
from repro.experiments import (
    LATENCY_D,
    LATENCY_L,
    crossings_per_write_bridged,
    crossings_per_write_flat,
    dialup_run,
    latency_flat,
    latency_tree,
    lemma1_violation_rate,
    messages_per_write_flat,
    messages_per_write_interconnected,
    response_time,
    section3_violation_rate,
    sequential_bridge_dekker,
    sequential_bridge_random,
)


class TestMessageRunners:
    def test_flat_matches_model(self):
        assert messages_per_write_flat(3) == flat_messages_per_write(3)

    def test_interconnected_matches_model(self):
        measured, n = messages_per_write_interconnected(2, shared=True)
        assert measured == interconnected_messages_per_write(n, 2, shared=True)

    def test_deterministic(self):
        assert messages_per_write_flat(4) == messages_per_write_flat(4)


class TestCrossingRunners:
    def test_flat_split(self):
        assert crossings_per_write_flat(2) == 2.0

    def test_bridged(self):
        assert crossings_per_write_bridged(2) == 1.0


class TestLatencyRunners:
    def test_flat(self):
        assert latency_flat() == LATENCY_L

    def test_star(self):
        assert latency_tree(3, "star", False) == star_worst_latency(LATENCY_L, LATENCY_D, 3)


class TestAblationRunners:
    def test_section3_rates(self):
        assert section3_violation_rate(True, range(2)) == 0.0
        assert section3_violation_rate(False, range(2)) == 1.0

    def test_lemma1_protocol2_rate_zero(self):
        assert lemma1_violation_rate(True, range(3)) == 0.0


class TestBridgeRunners:
    def test_sequential_random(self):
        causal, _sequential = sequential_bridge_random(0)
        assert causal

    def test_dekker(self):
        causal, sequential = sequential_bridge_dekker()
        assert causal and not sequential

    def test_response_time_shape(self):
        stats = response_time(["vector-causal"])
        assert stats.count > 0
        assert stats.mean == 0.0


class TestDialupRunner:
    def test_always_up(self):
        finish, queue_depth, delay, causal = dialup_run(1.0, 1.0)
        assert causal
        assert delay >= 0.0

    def test_dialup_slower(self):
        up_finish, *_ = dialup_run(1.0, 1.0)
        down_finish, _, _, causal = dialup_run(400.0, 0.005)
        assert causal
        assert down_finish > up_finish
