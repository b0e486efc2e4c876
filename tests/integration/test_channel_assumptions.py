"""X7: necessity of the paper's channel assumptions (reliable FIFO).

The IS-protocols require "a bidirectional reliable FIFO channel" (§1.1).
Each assumption is broken in isolation:

* non-FIFO delivery reorders the propagated pairs, so causally ordered
  writes arrive inverted in the peer system — the Lemma 1 failure mode
  without any exotic MCS protocol;
* at-least-once delivery makes the naive ``Propagate_in`` write a value
  twice, wrecking the §2 discipline — and the ``dedup_incoming``
  hardening restores exactly-once semantics and causality.
"""

import pytest

from repro.checker import check_causal
from repro.errors import CheckerError
from repro.experiments import channel_race_is_causal, duplicating_run


class TestReorderingChannel:
    def test_some_seed_violates_causality(self):
        verdicts = [channel_race_is_causal(seed) for seed in range(12)]
        assert not all(verdicts), "reordering never produced the inversion"

    def test_fifo_channel_never_violates(self):
        assert all(channel_race_is_causal(seed, reorder=False) for seed in range(12))


class TestDuplicatingChannel:
    def test_duplicates_injected(self):
        history, bridge = duplicating_run(dedup=True, seed=3)
        assert bridge.channel_ab.frames_duplicated > 0

    def test_naive_propagate_in_breaks_value_uniqueness(self):
        found_breakage = False
        for seed in range(8):
            history, bridge = duplicating_run(dedup=False, seed=seed)
            if bridge.channel_ab.frames_duplicated == 0:
                continue
            with pytest.raises(CheckerError, match="written twice"):
                history.for_system("S1").validate()
            found_breakage = True
            break
        assert found_breakage

    def test_dedup_restores_exactly_once(self):
        for seed in range(8):
            history, bridge = duplicating_run(dedup=True, seed=seed)
            history.for_system("S1").validate()  # no double writes
            verdict = check_causal(history.without_interconnect())
            assert verdict.ok
            if bridge.channel_ab.frames_duplicated:
                assert bridge.isp_b.duplicates_dropped > 0

    def test_values_still_arrive_with_dedup(self):
        history, _ = duplicating_run(dedup=True, seed=1)
        reads = [op.value for op in history.of_process("B") if op.is_read]
        assert reads == ["three", "two"]
