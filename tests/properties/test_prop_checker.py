"""Cross-validation of the polynomial causal checker against the
certificate-producing view search, on adversarially random histories.

This is the safety net for the checker pair: the saturation-based
characterisation and the explicit Definition-3 search must agree on every
history. Any disagreement would mean one of them is wrong about the
paper's causal-memory definition. A naive saturation oracle additionally
pins the reported violations (pattern, process, operations, detail) of
the bitmask decider to the textbook recompute-per-pass formulation.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.checker import check_causal, check_causal_by_views
from repro.memory.operations import INITIAL_VALUE
from repro.workloads import WorkloadSpec, build_interconnected
from repro.workloads.scenarios import run_until_quiescent
from tests.helpers import ops

PROCS = ["A", "B", "C"]
VARS = ["x", "y"]


@st.composite
def histories(draw, max_ops=9):
    """Random differentiated histories: unique write values per variable,
    reads drawn from written values or the initial value."""
    count = draw(st.integers(1, max_ops))
    written: dict[str, list[int]] = {var: [] for var in VARS}
    specs = []
    next_value = 0
    for _ in range(count):
        proc = draw(st.sampled_from(PROCS))
        var = draw(st.sampled_from(VARS))
        if draw(st.booleans()):
            next_value += 1
            written[var].append(next_value)
            specs.append((proc, "w", var, next_value))
        else:
            choices = [INITIAL_VALUE] + written[var]
            value = draw(st.sampled_from(choices))
            specs.append((proc, "r", var, value))
    return ops(*specs)


@given(histories())
@settings(max_examples=300, deadline=None)
def test_fast_checker_agrees_with_view_search(history):
    fast = check_causal(history)
    slow = check_causal_by_views(history, max_states=200_000)
    assert fast.ok == slow.ok, (
        f"checkers disagree (fast={fast.ok}, views={slow.ok}) on:\n{history.pretty()}"
    )


@given(histories())
@settings(max_examples=150, deadline=None)
def test_views_are_genuine_certificates(history):
    result = check_causal_by_views(history, max_states=200_000)
    if not result.ok:
        return
    for proc, view in result.views.items():
        store = {}
        for op in view:
            if op.is_write:
                store[op.var] = op.value
            else:
                assert store.get(op.var, INITIAL_VALUE) == op.value, (
                    f"illegal certificate view for {proc}:\n{history.pretty()}"
                )


@given(histories())
@settings(max_examples=150, deadline=None)
def test_write_only_histories_always_causal(history):
    writes_only = history.filter(lambda op: op.is_write)
    assert check_causal(writes_only).ok


@given(histories())
@settings(max_examples=100, deadline=None)
def test_single_process_prefixes_preserve_verdict_shape(history):
    # Dropping every process but one leaves a trivially causal history:
    # one process's ops in program order are their own legal view iff
    # each read sees the latest preceding write in program order... which
    # random generation does not guarantee — so only check the checker
    # never crashes and returns a boolean.
    for proc in PROCS:
        sub = history.filter(lambda op, _proc=proc: op.proc == _proc)
        result = check_causal(sub)
        assert result.ok in (True, False)


@given(histories())
@settings(max_examples=100, deadline=None)
def test_causal_verdict_stable_under_op_relabelling(history):
    # Consistency is about orders and values, not identifiers: renaming
    # systems must not change the verdict.
    relabelled = history.filter(lambda op: True)
    assert check_causal(relabelled).ok == check_causal(history).ok


# --- naive saturation oracle ----------------------------------------------
#
# The textbook decider, sharing no code with repro.checker.graph or
# repro.checker.causal: CO is closed by Warshall's algorithm over
# boolean-matrix rows, restricted to alpha_i (all writes plus process i's
# reads), and every saturation pass adds its edges and recomputes the
# whole closure. check_causal must report exactly what it reports.


def _warshall(rows):
    """Transitive closure of a boolean matrix held as row bitsets."""
    rows = list(rows)
    for via in range(len(rows)):
        bit = 1 << via
        for a in range(len(rows)):
            if rows[a] & bit:
                rows[a] |= rows[via]
    return rows


def _naive_saturation(ops, co, writer, proc):
    """The first violation of alpha_proc, or None."""
    alpha = [pos for pos, op in enumerate(ops) if op.is_write or op.proc == proc]
    local = {pos: k for k, pos in enumerate(alpha)}
    matrix = [
        sum(1 << local[b] for b in alpha if co[a] >> b & 1) for a in alpha
    ]
    reads = [k for k, pos in enumerate(alpha) if ops[pos].is_read]
    while True:
        for k in range(len(alpha)):
            if matrix[k] >> k & 1:
                return (
                    "CyclicHB",
                    (ops[alpha[k]],),
                    "the saturated happened-before relation is cyclic; "
                    "no permutation can preserve the causal order",
                )
        added = []
        for k_read in reads:
            read = ops[alpha[k_read]]
            source = None if read.reads_initial else writer[(read.var, read.value)]
            for k_other, pos in enumerate(alpha):
                other = ops[pos]
                if not other.is_write or other.var != read.var or pos == source:
                    continue
                if not matrix[k_other] >> k_read & 1:
                    continue
                if source is None:
                    return (
                        "WriteHBInitRead",
                        (other, read),
                        f"{read} returns the initial value although "
                        f"{other} precedes it in causal order",
                    )
                if not matrix[k_other] >> local[source] & 1:
                    added.append((k_other, local[source]))
        if not added:
            return None
        for a, b in added:
            matrix[a] |= 1 << b
        matrix = _warshall(matrix)


def naive_check_causal(history):
    """(ok, [(pattern, process, op ids, detail)]) by the textbook decider."""
    ops = list(history.operations)
    position = {op.op_id: pos for pos, op in enumerate(ops)}
    writer = {(op.var, op.value): pos for pos, op in enumerate(ops) if op.is_write}
    rows = [0] * len(ops)
    for proc in history.processes():
        sequence = history.of_process(proc)
        for earlier, later in zip(sequence, sequence[1:]):
            rows[position[earlier.op_id]] |= 1 << position[later.op_id]
    for pos, op in enumerate(ops):
        if op.is_read and not op.reads_initial:
            rows[writer[(op.var, op.value)]] |= 1 << pos
    co = _warshall(rows)
    for pos in range(len(ops)):
        if co[pos] >> pos & 1:
            detail = "program order and reads-from form a cycle"
            return False, [("CyclicCO", None, (ops[pos].op_id,), detail)]
    violations = []
    for proc in history.processes():
        if not any(op.is_read for op in history.of_process(proc)):
            continue
        found = _naive_saturation(ops, co, writer, proc)
        if found is not None:
            pattern, culprits, detail = found
            violations.append(
                (pattern, proc, tuple(op.op_id for op in culprits), detail)
            )
    return not violations, violations


def _report(result):
    return result.ok, [
        (
            violation.pattern,
            violation.process,
            tuple(op.op_id for op in violation.operations),
            violation.detail,
        )
        for violation in result.violations
    ]


@given(histories(max_ops=14))
@settings(max_examples=1000, deadline=None)
def test_check_causal_matches_naive_saturation_oracle(history):
    assert _report(check_causal(history)) == naive_check_causal(history), (
        history.pretty()
    )


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("protocol", ["scrambled-apply", "fifo-apply"])
def test_check_causal_matches_oracle_on_bridges(protocol, seed):
    # Seeded 4 x 40 bridges; scrambled-apply seeds 0 and 4 are CyclicHB,
    # so the comparison covers reported violations, not only "ok".
    result = build_interconnected(
        [protocol, "vector-causal"],
        WorkloadSpec(processes=4, ops_per_process=40, write_ratio=0.5),
        seed=seed,
    )
    run_until_quiescent(result.sim, result.systems)
    history = result.global_history
    assert _report(check_causal(history)) == naive_check_causal(history)


# --- closure-kernel equivalence -------------------------------------------
#
# The Relation kernel has fast paths (single-pass topological closure,
# run-decomposed restrict) and the converse the causal checker closes.
# Each must be *result-identical* to the naive formulation on arbitrary
# relations — cyclic ones included.

from repro.checker.graph import Relation  # noqa: E402


def _naive_closure(relation: Relation) -> list[list[bool]]:
    size = relation.size
    reach = [
        [relation.has(a, b) for b in range(size)] for a in range(size)
    ]
    for via in range(size):
        for a in range(size):
            if reach[a][via]:
                row = reach[a]
                for b in range(size):
                    if reach[via][b]:
                        row[b] = True
    return reach


@st.composite
def relations(draw, max_size=12, max_edges=30):
    size = draw(st.integers(1, max_size))
    relation = Relation(size)
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
            max_size=max_edges,
        )
    )
    for a, b in edges:
        relation.add(a, b)
    return relation


@given(relations())
@settings(max_examples=300, deadline=None)
def test_transitive_closure_matches_naive_floyd_warshall(relation):
    closure = relation.transitive_closure()
    reach = _naive_closure(relation)
    for a in range(relation.size):
        for b in range(relation.size):
            assert closure.has(a, b) == reach[a][b]


@given(relations())
@settings(max_examples=300, deadline=None)
def test_closure_commutes_with_transpose(relation):
    # The causal checker closes the converse of program order plus
    # reads-from to get predecessor masks; that must be the converse of
    # the closure.
    closure = relation.transitive_closure()
    assert relation.transposed().transitive_closure().equal_edges(
        closure.transposed()
    )


# --- re-closure of a growing relation --------------------------------------
#
# The saturation loop re-closes a relation grown by a few edges per pass,
# keeping the decoded masks and the topological order of the last pass
# and re-sorting only the stretches that new edges run against. Each
# re-closure must equal a from-scratch closure and the naive one, and
# report the same cycle node, also once an edge closes a cycle.

from repro.checker.graph import GrowingRelation  # noqa: E402


@st.composite
def growths(draw, max_size=14):
    """A sparse DAG whose edges follow a random ranking of the nodes, and
    two growths of it: batches of extra edges, any of which may close a
    cycle."""
    size = draw(st.integers(1, max_size))
    rank = draw(st.permutations(range(size)))
    node = st.integers(0, size - 1)
    relation = Relation(size)
    for a, b in draw(st.lists(st.tuples(node, node), max_size=2 * size)):
        if rank[a] < rank[b]:
            relation.add(a, b)
    batches = st.lists(st.lists(st.tuples(node, node), min_size=1, max_size=5), max_size=4)
    return relation, [draw(batches), draw(batches)]


def _naive_cycle_node(reach):
    return next((node for node in range(len(reach)) if reach[node][node]), None)


def _assert_kept_state(grown):
    """What the re-closure relies on: the decoded lists hold exactly the
    masks' bits, and, while acyclic, the order is a topological order
    and the positions are its inverse."""
    relation = grown.relation
    for node in range(relation.size):
        assert sorted(grown.children[node]) == sorted(relation.successors(node))
    if not grown.cyclic:
        assert [grown.position[node] for node in grown.order] == list(range(relation.size))
        for node in range(relation.size):
            for child in relation.successors(node):
                assert grown.position[node] < grown.position[child]


@given(growths())
@settings(max_examples=400, deadline=None)
def test_growing_reclosure_matches_fresh_closure(growth):
    relation, growths_of_base = growth
    base = GrowingRelation(relation.copy())
    base.closure()
    for batches in growths_of_base:  # copies of one base share its decoded lists
        grown, plain = base.copy(), relation.copy()
        for batch in batches:
            masks: dict[int, int] = {}
            for a, b in batch:
                masks[a] = masks.get(a, 0) | 1 << b
                plain.add(a, b)
            for a, mask in masks.items():
                grown.add_mask(a, mask)
            closure = grown.closure()
            fresh = plain.transitive_closure()
            reach = _naive_closure(plain)
            assert closure.equal_edges(fresh)
            assert all(
                closure.has(a, b) == reach[a][b]
                for a in range(plain.size)
                for b in range(plain.size)
            )
            assert grown.cyclic == (fresh.cycle_node() is not None)
            assert closure.cycle_node() == fresh.cycle_node() == _naive_cycle_node(reach)
            _assert_kept_state(grown)
    assert base.relation.equal_edges(relation)
    _assert_kept_state(base)


@given(relations())
@settings(max_examples=200, deadline=None)
def test_transposed_is_the_converse(relation):
    converse = relation.transposed()
    for a in range(relation.size):
        for b in range(relation.size):
            assert relation.has(a, b) == converse.has(b, a)


@given(relations(), st.data())
@settings(max_examples=300, deadline=None)
def test_restrict_matches_per_pair_probing(relation, data):
    keep = data.draw(
        st.lists(
            st.integers(0, relation.size - 1),
            unique=True,
            max_size=relation.size,
        )
    )
    sub = relation.restrict(keep)
    assert sub.size == len(keep)
    for new_a, old_a in enumerate(keep):
        for new_b, old_b in enumerate(keep):
            assert sub.has(new_a, new_b) == relation.has(old_a, old_b)


# --- shared-derivation equivalence ----------------------------------------
#
# The session checkers share one derivation per history through
# repro.checker.cache. Sharing must be invisible: results are identical
# whether the four guarantees reuse one cache entry or each recomputes
# from scratch, and the indexed writes-follow-reads scan must flag the
# same pairs as the naive quadratic one.

from repro.checker import check_all_session_guarantees  # noqa: E402
from repro.checker.cache import derive, invalidate  # noqa: E402
from repro.checker.sessions import (  # noqa: E402
    check_monotonic_reads,
    check_monotonic_writes,
    check_read_your_writes,
    check_writes_follow_reads,
)


def _violation_keys(result):
    return [
        (
            violation.pattern,
            violation.process,
            tuple(op.op_id for op in violation.operations),
        )
        for violation in result.violations
    ]


@given(histories())
@settings(max_examples=200, deadline=None)
def test_session_checkers_identical_with_cold_and_warm_cache(history):
    checkers = {
        "read-your-writes": check_read_your_writes,
        "monotonic-reads": check_monotonic_reads,
        "monotonic-writes": check_monotonic_writes,
        "writes-follow-reads": check_writes_follow_reads,
    }
    cold = {}
    for name, checker in checkers.items():
        invalidate()  # every checker re-derives from scratch
        cold[name] = checker(history)
    invalidate()
    warm = check_all_session_guarantees(history)  # one shared derivation
    for name in checkers:
        assert warm[name].ok == cold[name].ok
        assert _violation_keys(warm[name]) == _violation_keys(cold[name])


@given(histories())
@settings(max_examples=200, deadline=None)
def test_writes_follow_reads_matches_naive_quadratic_scan(history):
    result = check_writes_follow_reads(history)
    try:
        derivations = derive(history)
    except Exception:
        return  # thin-air read: the checker reported it, nothing to cross-check
    order, index = derivations.order, derivations.index
    reads_from = derivations.reads_from
    writes = history.writes()
    naive = []
    for proc in history.processes():
        seen_after: set[int] = set()
        for op in history.of_process(proc):
            if not op.is_read:
                continue
            source = reads_from.get(op)
            if source is None:
                continue
            for first in writes:
                for second in writes:
                    if (
                        first.var == second.var
                        and first.op_id != second.op_id
                        and first.op_id == source.op_id
                        and second.op_id in seen_after
                        and order.has(
                            index[first.op_id], index[second.op_id]
                        )
                    ):
                        naive.append(
                            (proc, first.op_id, second.op_id, op.op_id)
                        )
            seen_after.add(source.op_id)
    reported = [
        (v.process, v.operations[0].op_id, v.operations[1].op_id, v.operations[2].op_id)
        for v in result.violations
        if v.pattern == "WritesFollowReads"
    ]
    assert sorted(reported) == sorted(naive)
    assert result.ok == (not naive)
