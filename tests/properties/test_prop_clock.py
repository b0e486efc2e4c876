"""Property-based tests for vector clocks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.clock import VectorClock

entries = st.dictionaries(st.integers(0, 7), st.integers(0, 20), max_size=6)
clocks = entries.map(VectorClock)


@given(clocks, clocks)
def test_merge_commutative(a, b):
    assert a.merge(b) == b.merge(a)


@given(clocks, clocks, clocks)
def test_merge_associative(a, b, c):
    assert a.merge(b).merge(c) == a.merge(b.merge(c))


@given(clocks)
def test_merge_idempotent(a):
    assert a.merge(a) == a


@given(clocks, clocks)
def test_merge_is_least_upper_bound(a, b):
    merged = a.merge(b)
    assert merged.dominates(a) and merged.dominates(b)
    # Least: decreasing any entry below max(a, b) loses domination.
    for proc in merged.processes():
        assert merged.get(proc) == max(a.get(proc), b.get(proc))


@given(clocks, st.integers(0, 7))
def test_increment_strictly_increases(clock, proc):
    bumped = clock.increment(proc)
    assert clock < bumped
    assert bumped.get(proc) == clock.get(proc) + 1


@given(clocks, clocks)
def test_partial_order_antisymmetry(a, b):
    if a.dominates(b) and b.dominates(a):
        assert a == b


@given(clocks, clocks, clocks)
def test_partial_order_transitivity(a, b, c):
    if a.dominates(b) and b.dominates(c):
        assert a.dominates(c)


@given(clocks, clocks)
def test_trichotomy_of_comparisons(a, b):
    relations = [a < b, b < a, a == b, a.concurrent_with(b)]
    assert sum(relations) == 1


@given(st.lists(clocks, max_size=5))
def test_join_all_dominates_each(clock_list):
    joined = VectorClock.join_all(clock_list)
    for clock in clock_list:
        assert joined.dominates(clock)


# -- oracle: the library clock against a dict-based reference ---------------
#
# RefClock shares no code with VectorClock: a plain dict of nonzero
# entries, every operation spelled out the naive way. Clocks of different
# lengths, with gaps and explicit zero entries, must agree on every
# observable operation, including after chains of increments and merges.

MAX_PROC = 12


class RefClock:
    def __init__(self, entries=None):
        self.entries = {proc: count for proc, count in (entries or {}).items() if count}

    def get(self, proc):
        return self.entries.get(proc, 0)

    def increment(self, proc):
        entries = dict(self.entries)
        entries[proc] = entries.get(proc, 0) + 1
        return RefClock(entries)

    def merge(self, other):
        procs = set(self.entries) | set(other.entries)
        return RefClock({proc: max(self.get(proc), other.get(proc)) for proc in procs})

    def dominates(self, other):
        return all(self.get(proc) >= count for proc, count in other.entries.items())

    def causally_ready(self, clock, sender):
        if self.get(sender) != clock.get(sender) + 1:
            return False
        return all(
            count <= clock.get(proc)
            for proc, count in self.entries.items()
            if proc != sender
        )

    def processes(self):
        return sorted(self.entries)

    def text(self):
        inner = ", ".join(f"{proc}:{count}" for proc, count in sorted(self.entries.items()))
        return "VC({" + inner + "})"


sparse_entries = st.dictionaries(
    st.integers(0, MAX_PROC), st.integers(0, 4), max_size=MAX_PROC + 1
)
procs = st.integers(0, MAX_PROC + 2)


def _pair(entries):
    return VectorClock(entries), RefClock(entries)


def _assert_same(clock, ref):
    for proc in range(MAX_PROC + 4):
        assert clock.get(proc) == ref.get(proc)
    assert list(clock.processes()) == ref.processes()
    assert repr(clock) == ref.text()
    canonical = VectorClock(ref.entries)
    assert clock == canonical and hash(clock) == hash(canonical)


def _assert_relations(a, ref_a, b, ref_b):
    assert a.dominates(b) == ref_a.dominates(ref_b)
    assert (a <= b) == ref_b.dominates(ref_a)
    same = ref_a.entries == ref_b.entries
    assert (a == b) == same
    assert (a != b) == (not same)
    if same:
        assert hash(a) == hash(b)
    assert (a < b) == (ref_b.dominates(ref_a) and not same)
    for sender in range(MAX_PROC + 2):
        assert a.causally_ready(b, sender) == ref_a.causally_ready(ref_b, sender)


@settings(max_examples=300, deadline=None)
@given(sparse_entries, sparse_entries)
def test_oracle_constructed_clocks(a_entries, b_entries):
    (a, ref_a), (b, ref_b) = _pair(a_entries), _pair(b_entries)
    _assert_same(a, ref_a)
    _assert_same(b, ref_b)
    _assert_relations(a, ref_a, b, ref_b)
    _assert_relations(b, ref_b, a, ref_a)
    _assert_same(a.merge(b), ref_a.merge(ref_b))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(sparse_entries, min_size=1, max_size=4),
    st.lists(
        st.tuples(st.sampled_from(["increment", "merge"]), st.integers(0, 50), procs),
        max_size=25,
    ),
)
def test_oracle_operation_chains(seeds, steps):
    clocks = [_pair(entries) for entries in seeds]
    for op, index, proc in steps:
        clock, ref = clocks[index % len(clocks)]
        if op == "increment":
            result = (clock.increment(proc), ref.increment(proc))
        else:
            other, ref_other = clocks[proc % len(clocks)]
            result = (clock.merge(other), ref.merge(ref_other))
        _assert_same(*result)
        clocks.append(result)
    for clock, ref in clocks:
        for other, ref_other in clocks:
            _assert_relations(clock, ref, other, ref_other)


@st.composite
def timestamps_near(draw):
    """A replica clock, a sender and a timestamp built around the clock:
    no entry behind it but the sender's within reach of the next one,
    and sometimes one entry ahead, so readiness holds in about a sixth of
    the cases and fails in every way in the rest."""
    local = draw(sparse_entries)
    sender = draw(st.integers(0, MAX_PROC))
    ts = {proc: draw(st.integers(0, local.get(proc, 0))) for proc in range(MAX_PROC + 1)}
    ts[sender] = local.get(sender, 0) + draw(st.integers(0, 2))
    if draw(st.booleans()):
        ahead = draw(st.integers(0, MAX_PROC + 1))
        ts[ahead] = ts.get(ahead, 0) + 1
    return VectorClock(local), VectorClock(ts), sender


@settings(max_examples=300, deadline=None)
@given(timestamps_near())
def test_merging_a_ready_timestamp_is_incrementing(case):
    # The vector-causal apply increments the sender's entry instead of
    # merging; the two agree exactly when the update is causally ready.
    local, ts, sender = case
    assert ts.causally_ready(local, sender) == (local.merge(ts) == local.increment(sender))


def test_explicit_zero_entries_equal_the_empty_clock():
    assert VectorClock({3: 0}) == VectorClock()
    assert hash(VectorClock({3: 0})) == hash(VectorClock())
    assert VectorClock({0: 2, 5: 0}) == VectorClock({0: 2})
    assert repr(VectorClock({3: 0})) == "VC({})"
    assert VectorClock({4: 1}).increment(9).merge(VectorClock({11: 0})) == VectorClock(
        {4: 1, 9: 1}
    )


@pytest.mark.parametrize(
    "call",
    [
        lambda: VectorClock({-1: 1}),
        lambda: VectorClock({-2: 0}),
        lambda: VectorClock({0: 1}).get(-1),
        lambda: VectorClock().increment(-1),
        lambda: VectorClock({0: 1}).causally_ready(VectorClock(), -1),
    ],
    ids=["init", "init-zero", "get", "increment", "causally_ready"],
)
def test_negative_process_index_raises(call):
    with pytest.raises(ValueError):
        call()
