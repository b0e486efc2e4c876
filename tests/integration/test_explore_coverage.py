"""Coverage oracles for the explorer's two reductions.

Sleep sets alone are a sound reduction: they skip only interleavings
that commute with one already explored. Fingerprint pruning adds state
merges on top, and a merge is sound only if the state key captures
everything that influences the future. The oracle compares the two: the
set of distinct terminal histories (per-process operation sequences with
the values read) reached by the default sleep+fingerprint search must
equal the set reached by sleep-only search. Sleep-only search is the
same engine with a fingerprint that never repeats, so no state is ever
merged.

The sleep sets get the converse oracle: with every fired event waking
every sleeper, nothing stays asleep and the search is fingerprint-only.
Raw DFS, with neither reduction, is too slow to serve as the reference
even on the smallest fifo race.
"""

import functools
import itertools

import pytest

import repro.explore.engine as engine
from repro.explore import explore, get_scenario
from repro.workloads.scenarios import small_fifo_scenario


def _terminal_histories(scenario, factory):
    result = explore(
        scenario,
        factory,
        max_interleavings=10_000_000,
        max_decisions=None,
        stop_after=None,
    )
    assert result.exhausted, result.summary()
    return result.terminal_histories


def _assert_same_coverage(scenario, factory, monkeypatch, expected):
    default = _terminal_histories(scenario, factory)
    fresh = itertools.count()
    with monkeypatch.context() as patch:
        patch.setattr(engine, "fingerprinter", lambda result: lambda: next(fresh))
        sleep_only = _terminal_histories(scenario, factory)
    assert len(sleep_only) == expected
    assert default == sleep_only


def test_small_fifo_fingerprints_lose_no_terminal_history(monkeypatch):
    factory = functools.partial(small_fifo_scenario, max_polls=2)
    _assert_same_coverage("faulty-fifo", factory, monkeypatch, expected=11)


def test_small_fifo_sleep_sets_lose_no_terminal_history(monkeypatch):
    factory = functools.partial(small_fifo_scenario, max_polls=2)
    default = explore("fifo2", factory, max_interleavings=400_000, stop_after=None)
    with monkeypatch.context() as patch:
        patch.setattr(engine._ExplorerPolicy, "wakes", lambda self, slept, fired: True)
        fingerprint_only = explore(
            "fifo2", factory, max_interleavings=400_000, stop_after=None
        )
    assert default.exhausted and fingerprint_only.exhausted
    assert fingerprint_only.pruned_sleep == 0
    assert fingerprint_only.runs > default.runs
    assert fingerprint_only.distinct_histories == 11
    assert default.terminal_histories == fingerprint_only.terminal_histories


@pytest.mark.slow
@pytest.mark.parametrize(
    "scenario, expected",
    [
        ("faulty-fifo", 79),
        ("bridge-noread-control", 21),
        ("bridge-noread", 24),
        ("chain3-p1", 24),
    ],
)
def test_catalogue_fingerprints_lose_no_terminal_history(
    scenario, expected, monkeypatch
):
    factory = get_scenario(scenario).factory
    _assert_same_coverage(scenario, factory, monkeypatch, expected)
