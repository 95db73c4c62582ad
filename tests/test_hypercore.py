import math
import random
import re
from itertools import combinations

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
    adjacency,
    complement_uniform,
    complete_uniform,
    cycle,
    degrees,
    diameter,
    distance_matrix,
    edgeless,
    extend_edge,
    from_json,
    from_text,
    is_connected,
    is_k_uniform,
    shrink,
    to_json,
    to_text,
    unicyclic_cm,
    uniformity,
)
from oracles import assert_canonical


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

    @pytest.mark.parametrize("n", [2.5, True, np.float64(3.0), "3", None])
    def test_vertex_count_must_be_an_integer(self, n):
        # a float count would fail only later, inside numpy; a bool is no count
        with pytest.raises(HypergraphError, match="vertex count must be an integer"):
            Hypergraph(n, [])

    def test_numpy_integer_vertex_count_is_stored_as_int(self):
        h = Hypergraph(np.int64(3), [(0, 1)])
        assert type(h.n) is int
        assert h == Hypergraph(3, [(0, 1)])

    @pytest.mark.parametrize(
        "edges", [[(0, 0.5), (1, 2)], [(0, 1.0, 2)], [(True, 2)], [(0, np.float64(1))]]
    )
    def test_vertices_must_be_integers(self, edges):
        # adjacency would drop the edge (0, 0.5), and to_text would write
        # "0 1.0 2", which from_text rejects; a bool is no vertex
        with pytest.raises(HypergraphError, match="is not an integer"):
            Hypergraph(3, edges)
        with pytest.raises(HypergraphError, match="is not an integer"):
            add_edge(Hypergraph(3, []), edges[0])

    @pytest.mark.parametrize("edges", [[("a", 1)], [("a", "b")], [(0, None)], [5]])
    def test_incomparable_vertices_raise_hypergraph_error(self, edges):
        with pytest.raises(HypergraphError, match="edges must be iterables of integers"):
            Hypergraph(3, edges)

    def test_numpy_integer_vertices_are_stored_as_int(self):
        h = Hypergraph(3, [(np.int64(2), np.int32(0)), (np.uint8(1), 2)])
        assert h == Hypergraph(3, [(0, 2), (1, 2)])
        assert {type(v) for e in h.edges for v in e} == {int}
        assert from_json(to_json(h)) == h
        g = add_edge(Hypergraph(3, []), (np.int64(1), 0))
        assert g.edges == ((0, 1),) and type(g.edges[0][0]) is int

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

    def test_degrees_edgeless(self):
        assert degrees(edgeless(3)).tolist() == [0, 0, 0]

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

    @pytest.mark.parametrize("idx", [-1, 3])
    def test_shrink_edge_index_out_of_range(self, idx):
        # -1 would silently edit the last edge, and m would escape as a bare
        # IndexError
        with pytest.raises(HypergraphError, match=f"edge index {idx} outside 0..2"):
            shrink(cycle(3, 3), 2, idx)

    @pytest.mark.parametrize("idx", [-1, 3])
    def test_extend_edge_index_out_of_range(self, idx):
        with pytest.raises(HypergraphError, match=f"edge index {idx} outside 0..2"):
            extend_edge(cycle(3, 3), idx, 6)

    def test_shrink_edgeless_has_no_edge_index(self):
        with pytest.raises(HypergraphError, match="edge index 0"):
            shrink(edgeless(3), 0, 0)

    def test_extend_edge_edgeless_has_no_edge_index(self):
        with pytest.raises(HypergraphError, match="edge index 0"):
            extend_edge(edgeless(3), 0, 0)

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

    def test_empty_and_single_vertex(self):
        for n in (0, 1):
            h = Hypergraph(n, [])
            assert is_connected(h)
            assert diameter(h) == 0

    @staticmethod
    def _floyd_warshall(h):
        far = h.n  # longer than any shortest walk
        d = np.where(adjacency(h) > 0, 1, far).astype(np.int64)
        np.fill_diagonal(d, 0)
        for w in range(h.n):
            d = np.minimum(d, d[:, [w]] + d[[w], :])
        return np.where(d >= far, -1, d)

    def test_distance_matrix_matches_floyd_warshall(self, fixtures):
        rng = random.Random(14)
        cases = [h for _, h, _ in fixtures]
        cases += [Hypergraph(0, []), Hypergraph(1, [])]
        for _ in range(60):
            n = rng.randint(2, 10)
            pool = [c for size in (2, 3) for c in combinations(range(n), size)]
            cases.append(Hypergraph(n, rng.sample(pool, rng.randint(0, n // 2))))
        assert any((distance_matrix(h) < 0).any() for h in cases)
        for h in cases:
            d = distance_matrix(h)
            assert d.shape == (h.n, h.n) and d.dtype == np.int64, h
            assert np.array_equal(d, self._floyd_warshall(h)), h


class TestAddEdge:
    def test_add_to_edgeless(self):
        assert add_edge(edgeless(3), (0, 1, 2)) == Hypergraph(3, [(0, 1, 2)])

    def test_add_duplicate_to_complete(self):
        h = complete_uniform(4, 3)
        with pytest.raises(DuplicateEdgeError):
            add_edge(h, (0, 1, 2))


class TestTrustedEdits:
    def test_edits_equal_validated_construction(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import strategies as st

        @st.composite
        def scrambled(draw):
            n = draw(st.integers(2, 9))
            k = draw(st.integers(2, min(4, n)))
            edge = st.lists(st.integers(0, n - 1), min_size=2, max_size=k, unique=True)
            return n, k, draw(st.lists(edge, max_size=10, unique_by=frozenset))

        @hypothesis.settings(max_examples=150, deadline=None, database=None)
        @hypothesis.given(scrambled())
        def check(drawn):
            n, k, edges = drawn
            h = Hypergraph(n, edges)
            results = [
                add_edge(h, c[::-1])
                for size in range(2, k + 1)
                for c in combinations(range(n), size)
                if c not in h.edges
            ]
            for i, e in enumerate(h.edges):
                for v in range(n):
                    changed = tuple(sorted(set(e) ^ {v}))
                    if len(changed) >= 2 and changed not in h.edges:
                        results.append(shrink(h, v, i) if v in e else extend_edge(h, i, v))
            for r in results:
                assert_canonical(r)

        check()


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
        # signs are read, and a comment may hold any text
        assert from_text("# caf\u00e9 \uff13 \u0663 1_0\n4\n+0 1 +2\n-0 1 3\n") == cycle(2, 3)

    def test_text_bad_token_reports_line(self):
        with pytest.raises(ParseError, match="line 2"):
            from_text("3\n0 x 2\n")

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("12\n0 1_0\n", 2),  # int() reads 1_0 as 10
            ("1_2\n0 1\n", 1),
            ("4\n0 \uff13\n", 2),  # fullwidth three
            ("4\n0 \u0663\n", 2),  # Arabic-Indic three
        ],
        ids=["underscore", "underscore-count", "fullwidth", "arabic-indic"],
    )
    def test_text_rejects_non_ascii_decimals(self, text, lineno):
        raw = text.splitlines()[lineno - 1]
        with pytest.raises(ParseError, match=re.escape(f"line {lineno}: expected integers, got {raw!r}")):
            from_text(text)

    @pytest.mark.parametrize(
        "char", ["\x00", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x7f", "\r"],
        ids=["nul", "vt", "ff", "fs", "gs", "rs", "us", "del", "cr"],
    )
    def test_text_rejects_control_characters(self, char):
        # str.split() read "0\x1f1 2" as the edge (0, 1, 2)
        raw = f"0{char}1 2"
        with pytest.raises(ParseError, match=re.escape(f"line 2: expected integers, got {raw!r}")):
            from_text(f"4\n{raw}\n")

    def test_text_tabs_separate_tokens(self):
        assert from_text("4\n\t0\t1 2 \n0 1\t3\n") == cycle(2, 3)

    def test_text_comment_is_one_line(self):
        # str.splitlines() broke the comment at \x0c and read an edge after it
        assert from_text("4\n# a\x0c0 1 2\n") == Hypergraph(4, [])

    def test_text_error_names_its_own_line(self):
        # a \x0c in a comment made the bad token's line 3 read as line 4
        with pytest.raises(ParseError, match="^line 3: expected integers, got '0 x 3'$"):
            from_text("4\n# a\x0c b\n0 x 3\n")
        raw = "0 1 2\x0c"
        with pytest.raises(ParseError, match=re.escape(f"line 2: expected integers, got {raw!r}")):
            from_text(f"4\n{raw}\n0 x 3\n")

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

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"n": 3.0, "edges": [[0, 1]]}', '"n" must be an integer, got 3.0'),
            ('{"n": true, "edges": [[0, 1]]}', '"n" must be an integer, got true'),
            ('{"n": NaN, "edges": [[0, 1]]}', '"n" must be an integer, got NaN'),
            ('{"n": 1e400, "edges": [[0, 1]]}', '"n" must be an integer, got Infinity'),
            ('{"n": 3, "edges": [[0.5, 1]]}', "edge [0.5, 1]: vertex 0.5 is not an integer"),
            ('{"n": 3, "edges": [[0, 1.0]]}', "edge [0, 1.0]: vertex 1.0 is not an integer"),
            ('{"n": 3, "edges": [[false, 1]]}', "edge [false, 1]: vertex false is not an integer"),
            ('{"n": 3, "edges": [[0, "1"]]}', 'edge [0, "1"]: vertex "1" is not an integer'),
            ('{"n": 3, "edges": 5}', '"edges" must be a list of vertex lists'),
            ('{"n": 3, "edges": [{"0": 1}]}', '"edges" must be a list of vertex lists'),
        ],
    )
    def test_json_takes_integers_only(self, text, message):
        with pytest.raises(ParseError) as exc:
            from_json(text)
        assert str(exc.value) == message


_TWO_EDGES = Hypergraph(4, [(0, 1), (0, 1, 2)])


class TestRejections:
    @pytest.mark.parametrize(
        "call,error,message",
        [
            (lambda: Hypergraph(-1, []), HypergraphError, "vertex count must be >= 0, got -1"),
            (lambda: _TWO_EDGES.edge_index((1, 2)), HypergraphError, "edge (1, 2) not present"),
            (lambda: extend_edge(_TWO_EDGES, 0, 4), HypergraphError, "vertex 4 outside 0..3"),
            (lambda: extend_edge(_TWO_EDGES, 0, 1), HypergraphError, "vertex 1 already in edge (0, 1)"),
            (
                lambda: extend_edge(_TWO_EDGES, 0, 2),
                DuplicateEdgeError,
                "extending (0, 1) by 2 duplicates edge (0, 1, 2)",
            ),
            (lambda: from_text("3 4\n0 1\n"), ParseError, "line 1: first line must be the vertex count"),
            (
                lambda: from_json('{"n": 3, "edges": [[0, 5]]}'),
                ParseError,
                "edge (0, 5) uses a vertex outside 0..2",
            ),
        ],
        ids=["negative-n", "missing-edge", "extend-outside", "extend-member", "extend-duplicate",
             "text-two-counts", "json-vertex-outside"],
    )
    def test_error_messages(self, call, error, message):
        with pytest.raises(HypergraphError) as exc:
            call()
        assert (type(exc.value), str(exc.value)) == (error, message)
