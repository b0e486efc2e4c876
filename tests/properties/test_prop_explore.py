"""Property tests for the explorer's foundations.

The load-bearing property: installing the reference FifoPolicy (or no
policy at all — the pre-seam fast path) must not change *anything* about
a run. The policy seam only adds freedom; the default exercise of that
freedom is the old (time, seq) heap order, bit for bit.

The second property is what makes a tag sequence a schedule: the tags
offered at any decision are pairwise distinct, so replaying the tags a
run chose reproduces that run exactly.
"""

import functools

from hypothesis import given, settings, strategies as st

from repro.checker import check_causal
from repro.explore.policy import TracePolicy, dependent, target_of
from repro.sim.core import FifoPolicy
from repro.workloads import WorkloadSpec, build_interconnected
from repro.workloads.scenarios import (
    run_until_quiescent,
    small_bridge_scenario,
    small_fifo_scenario,
)


def _run(policy, seed, processes, ops):
    result = build_interconnected(
        ["vector-causal", "precise-causal"],
        WorkloadSpec(processes=processes, ops_per_process=ops),
        topology="chain",
        seed=seed,
    )
    result.sim.policy = policy
    run_until_quiescent(result.sim, result.systems)
    history = result.recorder.history()
    return (
        [
            (op.proc, op.kind.value, op.var, repr(op.value), op.issue_time, op.response_time)
            for op in history
        ],
        result.sim.now,
        result.sim.events_processed,
    )


class TestDefaultPolicyEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        processes=st.integers(min_value=1, max_value=3),
        ops=st.integers(min_value=1, max_value=5),
    )
    def test_fifo_policy_reproduces_default_run(self, seed, processes, ops):
        baseline = _run(None, seed, processes, ops)
        with_policy = _run(FifoPolicy(), seed, processes, ops)
        assert baseline == with_policy

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_empty_trace_policy_reproduces_default_run(self, seed):
        baseline = _run(None, seed, 2, 4)
        with_policy = _run(TracePolicy(), seed, 2, 4)
        assert baseline == with_policy

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_verdict_unchanged_under_default_policy(self, seed):
        result = build_interconnected(
            ["vector-causal", "vector-causal"],
            WorkloadSpec(processes=2, ops_per_process=4),
            seed=seed,
        )
        result.sim.policy = FifoPolicy()
        run_until_quiescent(result.sim, result.systems)
        assert check_causal(result.global_history).ok


class TestDependence:
    @given(tag=st.text(min_size=1, max_size=20))
    def test_dependence_is_reflexive(self, tag):
        assert dependent(tag, tag, {})

    @given(
        tag_a=st.one_of(st.none(), st.text(min_size=1, max_size=20)),
        tag_b=st.one_of(st.none(), st.text(min_size=1, max_size=20)),
    )
    def test_dependence_is_symmetric(self, tag_a, tag_b):
        assert dependent(tag_a, tag_b, {}) == dependent(tag_b, tag_a, {})

    def test_untagged_conflicts_with_everything(self):
        assert dependent(None, "proc:p", {})
        assert dependent("chan:n:a->b", None, {})

    def test_channel_delivery_targets_destination(self):
        assert target_of("chan:S0:a->b", {}) == "b"
        assert target_of("proc:b", {}) == "b"
        assert dependent("chan:S0:a->b", "proc:b", {})
        assert not dependent("chan:S0:a->b", "proc:a", {})

    def test_per_frame_tags_target_the_channel_destination(self):
        assert target_of("chan:S0:a->b#3", {}) == "b"
        assert target_of("chan:S0:a->b#dup1", {}) == "b"
        assert dependent("chan:S0:a->b#3", "chan:S0:a->b", {})

    def test_aliases_fold_isp_into_its_mcs(self):
        aliases = {"isp:S0": "S0/mcs:~isp:S0"}
        assert dependent(
            "chan:link:S0-S1:isp:S1->isp:S0",
            "proc:S0/mcs:~isp:S0",
            aliases,
        )


def _tag_run(factory, policy):
    result = factory()
    result.sim.policy = policy
    result.sim.run(max_events=10_000)
    assert not result.sim.pending
    return [
        (op.proc, op.kind.value, op.var, repr(op.value), op.issue_time, op.response_time)
        for op in result.recorder.history()
    ]


class TestTagReplay:
    @settings(max_examples=25, deadline=None)
    @given(
        factory=st.sampled_from(
            [
                small_fifo_scenario,
                functools.partial(small_bridge_scenario, use_pre_update=False),
                functools.partial(small_bridge_scenario, use_pre_update=True),
            ]
        ),
        data=st.data(),
    )
    def test_recorded_tags_replay_the_same_run(self, factory, data):
        offered = []

        class RandomPicks(TracePolicy):
            def _default_choice(self, position, candidates):
                offered.append([candidate.tag for candidate in candidates])
                return data.draw(st.integers(0, len(candidates) - 1))

        drawn = RandomPicks()
        history = _tag_run(factory, drawn)
        for tags in offered:
            assert len(set(tags)) == len(tags), tags

        replay = TracePolicy(drawn.trace)
        assert _tag_run(factory, replay) == history
        assert replay.trace == drawn.trace
