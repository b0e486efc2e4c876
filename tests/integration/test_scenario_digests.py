"""Seeded identity of every hand-written scenario.

Each entry pins the sha256 of ``dumps_history`` of the run and the
number of events the simulator processed on the way to quiescence. How a
scenario is assembled (which objects are created, in what order, with
which seeds) decides both, so any change to the builders that is meant
to be a pure refactor must leave this table alone.

``latency_tree`` and ``sequential_bridge_dekker`` return measurements,
not a built scenario; their run is captured at the
``run_until_quiescent`` call they make.
"""

import hashlib

import pytest

from repro import experiments
from repro.trace import dumps_history
from repro.workloads import scenarios

#: name -> (builder, events processed, sha256 of dumps_history).
DIGESTS = {
    "section3-read": (
        lambda: scenarios.section3_counterexample(read_before_send=True),
        63, "dfc885721aa1391187e039ef6e949f6cbb50d2e0c3e2148617508ca358078db4",
    ),
    "section3-noread": (
        lambda: scenarios.section3_counterexample(read_before_send=False),
        63, "e7ee473adeaa2dbe7033c9e0592bd414e23116a8b9cda278a2c20aed06905c2d",
    ),
    "lemma1-p1": (
        lambda: scenarios.lemma1_scenario(use_pre_update=False, lag_seed=1),
        65, "c44a45f12a417e3e9529babca8efe187b9d9a0b36c295a9f0c0da7df3ce9cd38",
    ),
    "lemma1-p2": (
        lambda: scenarios.lemma1_scenario(use_pre_update=True, lag_seed=1),
        45, "8a8f1bab5b9f5b191788d29013ddcab9df00b152bf69b057d8cd15e098c9ef04",
    ),
    "fifo-violation": (
        scenarios.fifo_causality_violation,
        33, "693c9e501c3b566b326f2417b65931ebd9b8b9b4e2f9d5581fc5d1e7c1491f86",
    ),
    "scrambled-pram": (
        lambda: scenarios.scrambled_pram_violation(2),
        33, "a29cb8ef630d15597cabd3b88c3c384e4c7abe924d7464f889f0880ab727e952",
    ),
    "bridge-p1": (
        lambda: scenarios.small_bridge_scenario(use_pre_update=False),
        20, "b6916669e669b0e15a5c05f24ed236f02c91f3acec04c3f9af77bd96fc5457c9",
    ),
    "bridge-p2": (
        lambda: scenarios.small_bridge_scenario(use_pre_update=True),
        20, "3999572b8f480faac10829ff74bcdce51a6265b884985e9d5ed85e94dcde91b9",
    ),
    "noread": (
        lambda: scenarios.small_noread_scenario(read_before_send=False),
        24, "25cb3fbaf4bf2ba3fd3449f84742fca3f5fb54a366f09dce1bdcce945c8e1a41",
    ),
    "noread-control": (
        lambda: scenarios.small_noread_scenario(read_before_send=True),
        24, "ef37dafe977ea4a1139e0ac9f11d1b484d8baca7479a5211827ab893dcd10370",
    ),
    "small-fifo": (
        scenarios.small_fifo_scenario,
        18, "a51a6b70b5582ca3583535b015bc9d8323741726099f4d214885b81badcad3d2",
    ),
    "small-fifo-2": (
        lambda: scenarios.small_fifo_scenario(max_polls=2),
        16, "f8a02007ea6b7d4c1ad9246a319d2969a2c2a7218cd708d12bd52e1f10e8cfe3",
    ),
}

#: name -> (experiment runner, events processed, sha256 of dumps_history).
EXPERIMENT_DIGESTS = {
    "dekker": (
        experiments.sequential_bridge_dekker,
        14, "5bbf6f868a999c4bf9876b43174cf677e39d9588c052e61f643b8b39a8e6f070",
    ),
    "latency-star-shared": (
        lambda: experiments.latency_tree(4, "star", True),
        13, "4d45d62a9e4a87d9c7686b84516f16372d875f52fef3602efea0c2609e1293d7",
    ),
    "latency-chain-per-edge": (
        lambda: experiments.latency_tree(4, "chain", False),
        15, "a91aade3a56798d44cdf4ec332245cc8504b79527a701920b54fd0603f7e38d5",
    ),
}


def _digest(history) -> str:
    return hashlib.sha256(dumps_history(history).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_scenario_run_is_pinned(name):
    builder, events, digest = DIGESTS[name]
    result = builder()
    scenarios.run_until_quiescent(result.sim, result.systems)
    assert (result.sim.events_processed, _digest(result.history)) == (events, digest)


@pytest.mark.parametrize("name", sorted(EXPERIMENT_DIGESTS))
def test_experiment_run_is_pinned(name, monkeypatch):
    runner, events, digest = EXPERIMENT_DIGESTS[name]
    runs = []

    def capture(sim, systems, *args, **kwargs):
        runs.append((sim, systems))
        scenarios.run_until_quiescent(sim, systems, *args, **kwargs)

    monkeypatch.setattr(experiments, "run_until_quiescent", capture)
    runner()
    [(sim, systems)] = runs
    assert (sim.events_processed, _digest(systems[0].recorder.history())) == (events, digest)
