"""Unit tests for the Relation (bitmask graph) utilities."""

from repro.checker.graph import GrowingRelation, Relation


class TestBasics:
    def test_add_and_has(self):
        relation = Relation(3)
        assert relation.add(0, 1)
        assert relation.has(0, 1)
        assert not relation.has(1, 0)

    def test_add_duplicate_returns_false(self):
        relation = Relation(2)
        assert relation.add(0, 1)
        assert not relation.add(0, 1)

    def test_successors(self):
        relation = Relation(4)
        relation.add(0, 2)
        relation.add(0, 3)
        assert sorted(relation.successors(0)) == [2, 3]

    def test_edge_count(self):
        relation = Relation(3)
        relation.add(0, 1)
        relation.add(1, 2)
        assert relation.edge_count() == 2

    def test_copy_is_independent(self):
        relation = Relation(2)
        relation.add(0, 1)
        dup = relation.copy()
        dup.add(1, 0)
        assert not relation.has(1, 0)


class TestClosure:
    def test_transitive_closure_chain(self):
        relation = Relation(4)
        relation.add(0, 1)
        relation.add(1, 2)
        relation.add(2, 3)
        closed = relation.transitive_closure()
        assert closed.has(0, 3)
        assert closed.has(1, 3)
        assert not closed.has(3, 0)

    def test_closure_does_not_mutate_original(self):
        relation = Relation(3)
        relation.add(0, 1)
        relation.add(1, 2)
        relation.transitive_closure()
        assert not relation.has(0, 2)

    def test_cycle_detection(self):
        relation = Relation(3)
        relation.add(0, 1)
        relation.add(1, 2)
        relation.add(2, 0)
        closed = relation.transitive_closure()
        assert closed.cycle_node() is not None

    def test_acyclic_has_no_cycle_node(self):
        relation = Relation(3)
        relation.add(0, 1)
        relation.add(0, 2)
        assert relation.transitive_closure().cycle_node() is None

    def test_self_loop_is_cycle(self):
        relation = Relation(2)
        relation.add(1, 1)
        assert relation.transitive_closure().cycle_node() == 1


class TestGrowingRelation:
    def test_self_loop_in_the_base_is_a_cycle(self):
        relation = Relation(2)
        relation.add(1, 1)
        grown = GrowingRelation(relation)
        assert grown.closure().cycle_node() == 1
        assert grown.cyclic


class TestRestrict:
    def test_restrict_reindexes(self):
        relation = Relation(4)
        relation.add(0, 2)
        relation.add(2, 3)
        sub = relation.restrict([0, 2, 3])
        assert sub.size == 3
        assert sub.has(0, 1)  # old 0 -> old 2
        assert sub.has(1, 2)  # old 2 -> old 3

    def test_restrict_drops_outside_edges(self):
        relation = Relation(3)
        relation.add(0, 1)
        sub = relation.restrict([0, 2])
        assert sub.edge_count() == 0

    def test_restrict_empty_keep(self):
        relation = Relation(3)
        relation.add(0, 1)
        assert relation.restrict([]).size == 0

    def test_restrict_non_consecutive_runs(self):
        # Mixed runs: [0,1] is one chunk, [3] and [5] are singletons.
        relation = Relation(6)
        relation.add(0, 1)
        relation.add(1, 3)
        relation.add(3, 5)
        relation.add(0, 4)  # dropped: 4 is not kept
        sub = relation.restrict([0, 1, 3, 5])
        assert sub.has(0, 1)
        assert sub.has(1, 2)
        assert sub.has(2, 3)
        assert sub.edge_count() == 3


class TestTransposed:
    def test_transposed_is_the_converse(self):
        relation = Relation(4)
        relation.add(0, 2)
        relation.add(1, 2)
        relation.add(2, 3)
        converse = relation.transposed()
        assert sorted(converse.successors(2)) == [0, 1]
        assert sorted(converse.successors(0)) == []
        assert converse.successors_mask(3) == 1 << 2
        assert converse.edge_count() == relation.edge_count()

    def test_transposed_does_not_track_later_adds(self):
        relation = Relation(3)
        relation.add(0, 1)
        converse = relation.transposed()
        relation.add(2, 1)
        assert list(converse.successors(1)) == [0]


class TestAddMask:
    def test_add_mask_then_reclose_bridges_reachability(self):
        relation = Relation(5)
        relation.add(0, 1)
        relation.add(3, 4)
        relation.add_mask(1, 1 << 3)
        closed = relation.transitive_closure()
        # Everything reaching 1 now reaches everything 3 reaches.
        assert closed.has(0, 3)
        assert closed.has(0, 4)
        assert closed.has(1, 4)
        assert not closed.has(4, 0)

    def test_add_mask_of_existing_edges_is_noop(self):
        relation = Relation(3)
        relation.add(0, 1)
        relation.add(0, 2)
        before = relation.copy()
        relation.add_mask(0, 1 << 1 | 1 << 2)
        assert relation.equal_edges(before)

    def test_add_mask_matches_per_edge_add(self):
        by_mask, by_edge = Relation(6), Relation(6)
        by_mask.add_mask(2, 1 << 3 | 1 << 5)
        by_edge.add(2, 3)
        by_edge.add(2, 5)
        assert by_mask.equal_edges(by_edge)
        assert by_mask.transitive_closure().equal_edges(by_edge.transitive_closure())

    def test_reclosure_after_add_mask_can_create_cycle(self):
        relation = Relation(3)
        relation.add(0, 1)
        relation.add(1, 2)
        relation.add_mask(2, 1 << 0)
        closed = relation.transitive_closure()
        assert closed.cycle_node() == 0
        assert closed.has(1, 1)

    def test_cycle_node_among_restricts_to_the_mask(self):
        relation = Relation(4)
        relation.add(1, 2)
        relation.add(2, 1)
        closed = relation.transitive_closure()
        assert closed.cycle_node() == 1
        assert closed.cycle_node(1 << 2 | 1 << 3) == 2
        assert closed.cycle_node(1 << 0 | 1 << 3) is None


class TestEqualEdges:
    def test_equal_edges(self):
        left, right = Relation(3), Relation(3)
        left.add(0, 1)
        right.add(0, 1)
        assert left.equal_edges(right)
        right.add(1, 2)
        assert not left.equal_edges(right)
        assert not left.equal_edges(Relation(2))
