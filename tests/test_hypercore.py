import math

import numpy as np
import pytest

from hypestra import (
    DisconnectedError,
    DuplicateEdgeError,
    Hypergraph,
    HypergraphError,
    ParseError,
    VACUOUS,
    add_edge,
    coalesce,
    complement_uniform,
    complete_uniform,
    cycle,
    degrees,
    diameter,
    distance_matrix,
    edge_swap,
    edgeless,
    extend_edge,
    from_json,
    from_text,
    hyperstar,
    is_connected,
    is_k_uniform,
    is_regular,
    shrink,
    to_json,
    to_text,
    unicyclic_cm,
    uniformity,
)


class TestConstruction:
    def test_single_edge(self):
        h = Hypergraph(3, [{0, 1, 2}])
        assert h.n == 3
        assert h.m == 1
        assert h.edges == ((0, 1, 2),)

    def test_matches_generated_two_ring(self):
        explicit = Hypergraph(4, [{0, 1, 2}, {0, 1, 3}])
        assert explicit == cycle(2, 3)

    def test_canonical_ordering(self):
        a = Hypergraph(5, [(3, 4, 2), (1, 0, 2)])
        b = Hypergraph(5, [(0, 1, 2), (2, 3, 4)])
        assert a == b
        assert hash(a) == hash(b)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdgeError, match=r"duplicate edge \(0, 1, 2\)"):
            Hypergraph(3, [(0, 1, 2), (2, 1, 0)])

    def test_small_edge_rejected(self):
        with pytest.raises(HypergraphError, match="fewer than 2"):
            Hypergraph(3, [(0,)])

    def test_vertex_out_of_range_rejected(self):
        with pytest.raises(HypergraphError, match="outside"):
            Hypergraph(3, [(0, 3)])

    def test_repeated_vertex_rejected(self):
        with pytest.raises(HypergraphError, match="repeats"):
            Hypergraph(3, [(0, 0, 1)])

    def test_immutable(self):
        h = Hypergraph(3, [(0, 1)])
        with pytest.raises(AttributeError):
            h.n = 5


class TestBasicQueries:
    def test_uniformity_single_edge(self):
        assert uniformity(Hypergraph(3, [(0, 1, 2)])) == 3

    def test_uniformity_mixed(self):
        assert uniformity(Hypergraph(3, [(0, 1, 2), (0, 1)])) is None

    def test_uniformity_edgeless(self):
        assert uniformity(edgeless(5)) is VACUOUS
        assert is_k_uniform(edgeless(5), 3)
        assert is_k_uniform(edgeless(5), 7)

    def test_degrees_two_ring(self):
        assert degrees(cycle(2, 3)).tolist() == [2, 2, 1, 1]

    def test_degrees_complete(self):
        h = complete_uniform(4, 3)
        assert degrees(h).tolist() == [3, 3, 3, 3]
        assert is_regular(h, math.comb(3, 2))

    def test_degrees_edgeless(self):
        assert degrees(edgeless(3)).tolist() == [0, 0, 0]
        assert is_regular(edgeless(3), 0)

    def test_degree_sum_equals_total_edge_size(self, fixtures):
        for _, h, _ in fixtures:
            assert degrees(h).sum() == sum(len(e) for e in h.edges)


class TestComplement:
    def test_complete_becomes_edgeless(self):
        assert complement_uniform(complete_uniform(4, 3), 3) == edgeless(4)

    def test_edgeless_becomes_complete(self):
        assert complement_uniform(edgeless(4), 3) == complete_uniform(4, 3)

    def test_two_ring_self_complementary_shape(self):
        h = cycle(2, 3)
        comp = complement_uniform(h, 3)
        assert comp == Hypergraph(4, [(0, 2, 3), (1, 2, 3)])

    def test_involution_and_edge_count(self, fixtures):
        for name, h, k in fixtures:
            if not is_k_uniform(h, k):
                continue
            comp = complement_uniform(h, k)
            assert complement_uniform(comp, k) == h, name
            assert h.m + comp.m == math.comb(h.n, k), name

    def test_not_uniform_rejected(self):
        with pytest.raises(HypergraphError, match="not 3-uniform"):
            complement_uniform(Hypergraph(4, [(0, 1)]), 3)

    def test_k_above_n_rejected(self):
        with pytest.raises(HypergraphError, match="k"):
            complement_uniform(edgeless(2), 3)


class TestShrinkExtend:
    def test_shrink_three_ring(self):
        h = cycle(3, 3)
        # last ring edge {2, 0, 5}; removing ring vertex 2 leaves {0, 5}
        idx = h.edge_index((0, 2, 5))
        shrunk = shrink(h, 2, idx)
        assert (0, 5) in shrunk.edges
        assert uniformity(shrunk) is None

    def test_shrink_requires_membership(self):
        h = Hypergraph(4, [(0, 1, 2)])
        with pytest.raises(HypergraphError, match="not in edge"):
            shrink(h, 3, 0)

    def test_shrink_size_floor(self):
        h = Hypergraph(3, [(0, 1)])
        with pytest.raises(HypergraphError, match="fewer than 2"):
            shrink(h, 0, 0)

    def test_shrink_duplicate(self):
        h = Hypergraph(3, [(0, 1), (0, 1, 2)])
        with pytest.raises(DuplicateEdgeError):
            shrink(h, 2, h.edge_index((0, 1, 2)))

    def test_extend_inverts_shrink(self, fixtures):
        for name, h, _ in fixtures:
            for idx, e in enumerate(h.edges):
                if len(e) < 3:
                    continue
                v = e[0]
                try:
                    shrunk = shrink(h, v, idx)
                except DuplicateEdgeError:
                    continue
                restored = extend_edge(shrunk, shrunk.edge_index(tuple(x for x in e if x != v)), v)
                assert restored == h, name


class TestEdgeSwap:
    def test_pendant_move(self):
        # moving the pendant edge from ring vertex 1 to ring vertex 0
        before = unicyclic_cm(3, [0, 1])
        after = unicyclic_cm(3, [1, 0])
        stem = (4, 5)  # the pendant edge (1, 4, 5) less ring vertex 1
        assert edge_swap(before, [stem], 1, 0) == after

    def test_empty_swap_is_identity(self):
        h = cycle(2, 3)
        assert edge_swap(h, [], 0, 1) == h

    def test_stem_must_avoid_endpoints(self):
        h = Hypergraph(4, [(0, 1, 2)])
        with pytest.raises(HypergraphError, match="avoid"):
            edge_swap(h, [(1, 2)], 0, 1)

    def test_missing_edge_rejected(self):
        h = Hypergraph(4, [(0, 1, 2)])
        with pytest.raises(HypergraphError, match="not present"):
            edge_swap(h, [(1, 3)], 0, 2)

    def test_duplicate_target_rejected(self):
        h = Hypergraph(4, [(0, 1, 2), (1, 2, 3)])
        with pytest.raises(DuplicateEdgeError):
            edge_swap(h, [(1, 2)], 0, 3)


class TestCoalesce:
    def test_two_single_edges_make_star(self):
        e1 = Hypergraph(3, [(0, 1, 2)])
        merged = coalesce(e1, 0, e1, 0)
        assert merged == hyperstar(3, 2)

    def test_identity_with_point(self):
        h = cycle(2, 3)
        assert coalesce(h, 1, Hypergraph(1, []), 0) == h

    def test_counts(self, fixtures):
        other = hyperstar(3, 2)
        for name, h, _ in fixtures:
            if h.n == 0:
                continue
            merged = coalesce(h, 0, other, 2)
            assert merged.n == h.n + other.n - 1, name
            assert merged.m == h.m + other.m, name

    def test_star_at_ring_vertex_is_pendant_attachment(self):
        # gluing a 2-edge star's center onto a ring vertex produces the
        # same labeled hypergraph as attaching two pendant edges there
        merged = coalesce(cycle(2, 3), 0, hyperstar(3, 2), 0)
        assert merged == unicyclic_cm(3, [2, 0])


class TestDistances:
    def test_single_edge_diameter(self):
        assert diameter(Hypergraph(3, [(0, 1, 2)])) == 1

    def test_x6_diameter(self):
        assert diameter(unicyclic_cm(3, [1, 0])) == 2

    def test_c2_3_1_diameter(self):
        h = unicyclic_cm(3, [3, 1])
        assert h.n == 12
        assert diameter(h) == 3

    def test_distance_matrix_symmetric(self):
        h = unicyclic_cm(3, [1, 0])
        d = distance_matrix(h)
        assert np.array_equal(d, d.T)
        assert d.diagonal().tolist() == [0] * h.n

    def test_disconnected_diameter_raises(self):
        h = Hypergraph(6, [(0, 1, 2), (3, 4, 5)])
        assert not is_connected(h)
        with pytest.raises(DisconnectedError):
            diameter(h)

    def test_connected_fixtures(self, fixtures):
        for name, h, _ in fixtures:
            if h.m:
                assert is_connected(h), name


class TestAddEdge:
    def test_add_to_edgeless(self):
        assert add_edge(edgeless(3), (0, 1, 2)) == Hypergraph(3, [(0, 1, 2)])

    def test_add_duplicate_to_complete(self):
        h = complete_uniform(4, 3)
        with pytest.raises(DuplicateEdgeError):
            add_edge(h, (0, 1, 2))


class TestSerialization:
    def test_text_round_trip(self, fixtures):
        for name, h, _ in fixtures:
            assert from_text(to_text(h)) == h, name
            assert to_text(from_text(to_text(h))) == to_text(h), name

    def test_json_round_trip(self, fixtures):
        for name, h, _ in fixtures:
            assert from_json(to_json(h)) == h, name

    def test_text_comments_and_blanks(self):
        text = "# a comment\n\n4\n0 1 2\n# another\n0 1 3\n"
        assert from_text(text) == cycle(2, 3)

    def test_text_bad_token_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            from_text("3\n0 x 2\n")

    def test_text_missing_header(self):
        with pytest.raises(ParseError, match="vertex count"):
            from_text("# nothing\n")

    def test_text_invariants_enforced(self):
        with pytest.raises(ParseError, match="duplicate"):
            from_text("3\n0 1 2\n2 1 0\n")

    def test_json_shape_enforced(self):
        with pytest.raises(ParseError, match="keys"):
            from_json('{"n": 3}')
        with pytest.raises(ParseError):
            from_json("[1, 2]")
        with pytest.raises(ParseError, match="JSON"):
            from_json("{broken")
