import math
import random

import pytest

from hypestra import (
    BIBDCertificate,
    DuplicateEdgeError,
    FamilyGrammarError,
    Hypergraph,
    HypergraphError,
    bibd_validate,
    build_family,
    complement_uniform,
    complete_uniform,
    compositions,
    cycle,
    degrees,
    edgeless,
    estrada_index,
    fano_plane,
    g_star_star,
    hyperstar,
    is_connected,
    is_k_uniform,
    path_p3,
    random_uniform,
    spectrum_of,
    unicyclic_catalog,
    unicyclic_cm,
    uniformity,
    x_n,
)
from oracles import assert_canonical, catalog_shape


def _ee(h):
    return estrada_index(spectrum_of(h))


class TestCompleteAndEdgeless:
    def test_complete_counts(self):
        h = complete_uniform(4, 3)
        assert h.m == 4
        assert degrees(h).tolist() == [3, 3, 3, 3]

    def test_boundary_n_equals_k(self):
        assert complete_uniform(3, 3) == Hypergraph(3, [(0, 1, 2)])

    def test_edgeless_estrada(self):
        assert _ee(edgeless(5)) == pytest.approx(5.0, abs=1e-12)

    def test_bad_k(self):
        with pytest.raises(HypergraphError):
            complete_uniform(3, 5)
        with pytest.raises(HypergraphError):
            complete_uniform(3, 1)


class TestCycle:
    def test_two_ring(self):
        h = cycle(2, 3)
        # ring vertices 0 and 1; filler 2 on ring edge 0, filler 3 on ring edge 1
        assert h == Hypergraph(4, [(0, 1, 2), (0, 1, 3)])

    def test_three_ring_degrees(self):
        h = cycle(3, 3)
        assert h.n == 6
        assert h.m == 3
        assert degrees(h).tolist() == [2, 2, 2, 1, 1, 1]

    def test_two_ring_of_pairs_rejected(self):
        with pytest.raises(DuplicateEdgeError, match=r"^duplicate edge \(0, 1\)$"):
            cycle(2, 2)

    def test_graph_cycle(self):
        h = cycle(5, 2)
        assert h.n == 5
        assert degrees(h).tolist() == [2] * 5

    def test_ring_edges_have_expected_members(self):
        for m, k in [(2, 3), (3, 3), (4, 4), (5, 2)]:
            if (m, k) == (2, 2):
                continue
            h = cycle(m, k)
            for i in range(m):
                fillers = range(m + i * (k - 2), m + (i + 1) * (k - 2))
                edge = tuple(sorted([i, (i + 1) % m, *fillers]))
                assert edge in h.edges
                assert i in edge
                assert (i + 1) % m in edge


class TestUnicyclic:
    def test_x6(self):
        h = unicyclic_cm(3, [1, 0])
        assert h.n == 6
        assert h.m == 3
        assert (0, 4, 5) in h.edges

    def test_x12_shape(self):
        h = x_n(12, 3)
        assert h == unicyclic_cm(3, [4, 0])
        assert h.n == 12
        assert h.m == 6

    def test_figure_shape_c3_2_1_0(self):
        h = unicyclic_cm(3, [2, 1, 0])
        assert h.n == 12
        assert h.m == 6
        assert {(0, 6, 7), (0, 8, 9), (1, 10, 11)} <= set(h.edges)

    def test_order_formula(self):
        rng = random.Random(3)
        for _ in range(20):
            k = rng.randint(2, 5)
            m = rng.randint(2, 4)
            if m == 2 and k == 2:
                continue
            pendants = [rng.randint(0, 2) for _ in range(m)]
            h = unicyclic_cm(k, pendants)
            assert h.n == (k - 1) * (m + sum(pendants))
            assert h.m == m + sum(pendants)
            assert is_k_uniform(h, k)
            assert is_connected(h)

    def test_divisibility_enforced(self):
        with pytest.raises(HypergraphError, match="multiple"):
            x_n(7, 3)


class TestStarPathGss:
    def test_hyperstar_structure(self):
        h = hyperstar(3, 2)
        assert h.n == 5
        assert degrees(h)[0] == 2
        assert set(h.edges[0]) & set(h.edges[1]) == {0}

    def test_hyperstar_single_edge(self):
        assert hyperstar(3, 1) == Hypergraph(3, [(0, 1, 2)])

    def test_hyperstar_graph_star(self):
        h = hyperstar(2, 3)
        assert h == Hypergraph(4, [(0, 1), (0, 2), (0, 3)])

    def test_path_degrees(self):
        h = path_p3(3)
        assert h.n == 7
        d = degrees(h)
        assert d[2] == 2
        assert d[4] == 2
        assert sum(d) == 9
        assert sorted(d.tolist()) == [1, 1, 1, 1, 1, 2, 2]

    def test_path_rejects_k2(self):
        with pytest.raises(HypergraphError):
            path_p3(2)

    def test_gss_structure(self):
        h = g_star_star(3)
        assert h.n == 6
        assert h.m == 3
        assert degrees(h)[2] == 2  # the filler vertex carrying the extra edge

    def test_gss_orderings(self):
        assert _ee(cycle(3, 3)) < _ee(g_star_star(3))
        assert _ee(g_star_star(3)) < _ee(unicyclic_cm(3, [1, 0]))


class TestBIBD:
    def test_fano(self):
        cert = bibd_validate(fano_plane())
        assert cert == BIBDCertificate(n=7, b=7, k=3, beta=1, r=3)

    def test_complete_5_3(self):
        cert = bibd_validate(complete_uniform(5, 3))
        assert cert.beta == math.comb(3, 1)
        assert cert.r == 6

    def test_two_ring_is_not_balanced(self):
        assert bibd_validate(cycle(2, 3)) is None

    def test_non_uniform_rejected(self):
        with pytest.raises(HypergraphError, match="uniform"):
            bibd_validate(Hypergraph(4, [(0, 1), (0, 1, 2)]))

    def test_edgeless_and_tight_orders(self):
        assert bibd_validate(edgeless(5)) is None
        assert bibd_validate(complete_uniform(3, 3)) is None  # needs n > k

    def test_replication_matches_degrees(self, fixtures):
        for name, h, _ in fixtures:
            cert = None
            if uniformity(h) not in (None,) and h.m:
                try:
                    cert = bibd_validate(h)
                except HypergraphError:
                    continue
            if cert:
                assert degrees(h).tolist() == [cert.r] * h.n, name
                assert cert.r * (cert.k - 1) == cert.beta * (cert.n - 1), name

    def test_certificate_invariants_enforced(self):
        with pytest.raises(ValueError):
            BIBDCertificate(n=7, b=7, k=3, beta=1, r=4)


class TestCatalog:
    def test_smallest_catalog_is_the_plain_ring(self):
        entries = unicyclic_catalog(2, 3)
        assert [e.label for e in entries] == ["cm:3:0,0"]
        assert entries[0].hypergraph == cycle(2, 3)

    def test_three_over_contains_figure_shapes(self):
        entries = unicyclic_catalog(3, 3)
        shapes = {e.hypergraph for e in entries}
        assert unicyclic_cm(3, [1, 0]) in shapes
        assert cycle(3, 3) in shapes
        assert g_star_star(3) in shapes

    def test_four_over_contents(self):
        entries = unicyclic_catalog(4, 3)
        labels = {e.label for e in entries}
        assert "cm:3:2,0" in labels
        assert "cm:3:1,1" in labels
        assert "cm:3:0,0,0,0" in labels
        assert "cm:3:1,0,0" in labels
        assert any(label.startswith("cmx:") for label in labels)
        assert any("+deep@" in label for label in labels)

    def test_catalog_members_are_valid(self):
        for n_over, k in [(4, 3), (5, 3), (3, 4)]:
            for entry in unicyclic_catalog(n_over, k):
                h = entry.hypergraph
                assert h.n == (k - 1) * n_over, entry.label
                assert h.m == n_over, entry.label
                assert is_k_uniform(h, k), entry.label
                assert is_connected(h), entry.label

    def test_catalog_contains_expected_extremes(self):
        for n_over in (4, 5, 6):
            shapes = {e.hypergraph for e in unicyclic_catalog(n_over, 3)}
            assert unicyclic_cm(3, [n_over - 2, 0]) in shapes
            assert unicyclic_cm(3, [n_over - 3, 1]) in shapes

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_entries_match_their_labels(self, k):
        # pins the vertex layout of every label kind, not just the shape
        kinds = set()
        for n_over in range(2, 8):
            for entry in unicyclic_catalog(n_over, k):
                assert entry.hypergraph == catalog_shape(entry.label), entry.label
                kinds.add("deep" if "+deep@" in entry.label else entry.label.split(":")[0])
        assert kinds == {"cm", "cmx", "deep"}

    def test_deterministic_order(self):
        first = [e.label for e in unicyclic_catalog(4, 3)]
        second = [e.label for e in unicyclic_catalog(4, 3)]
        assert first == second

    def test_compositions(self):
        assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
        assert list(compositions(0, 3)) == [(0, 0, 0)]
        assert len(list(compositions(4, 2))) == 5


class TestTrustedBuilders:
    def test_rings_equal_validated_construction(self):
        for k in range(2, 6):
            for m in range(2, 8):
                if m == k == 2:
                    continue
                assert_canonical(cycle(m, k))
                for total in range(3):
                    for pendants in compositions(total, m):
                        assert_canonical(unicyclic_cm(k, list(pendants)))

    def test_catalog_equals_validated_construction(self):
        for k, n_overs in ((3, (3, 4, 5, 6)), (4, (3, 4))):
            for n_over in n_overs:
                for entry in unicyclic_catalog(n_over, k):
                    assert_canonical(entry.hypergraph)

    def test_complete_equals_validated_construction(self):
        for n in range(2, 10):
            for k in range(2, n + 1):
                assert_canonical(complete_uniform(n, k))

    def test_complement_equals_validated_construction(self):
        rng = random.Random(14)
        for _ in range(40):
            n = rng.randint(2, 9)
            k = rng.randint(2, min(4, n))
            h = random_uniform(n, k, rng.randint(0, math.comb(n, k)), rng)
            comp = complement_uniform(h, k)
            assert_canonical(comp)
            assert complement_uniform(comp, k) == h


class TestRandomUniform:
    def test_reproducible(self):
        a = random_uniform(8, 3, 6, random.Random(42))
        b = random_uniform(8, 3, 6, random.Random(42))
        assert a == b

    def test_validity(self):
        rng = random.Random(0)
        for _ in range(30):
            n = rng.randint(3, 10)
            k = rng.randint(2, min(4, n))
            m = rng.randint(0, math.comb(n, k))
            h = random_uniform(n, k, m, rng)
            assert h.m == m
            assert is_k_uniform(h, k)

    def test_bounds_checked(self):
        with pytest.raises(HypergraphError):
            random_uniform(3, 3, 2, random.Random(0))


class TestGrammar:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("complete:4,3", lambda: complete_uniform(4, 3)),
            ("edgeless:5", lambda: edgeless(5)),
            ("cycle:2,3", lambda: cycle(2, 3)),
            ("cm:3:4,0", lambda: unicyclic_cm(3, [4, 0])),
            ("xn:12,3", lambda: x_n(12, 3)),
            ("star:3,2", lambda: hyperstar(3, 2)),
            ("p3:3", lambda: path_p3(3)),
            ("gss:3", lambda: g_star_star(3)),
            ("fano", fano_plane),
        ],
    )
    def test_round_trip(self, text, expected):
        assert build_family(text) == expected()

    def test_gen_x12_counts(self):
        h = build_family("cm:3:4,0")
        assert h.n == 12
        assert h.m == 6

    def test_unknown_family(self):
        with pytest.raises(FamilyGrammarError, match="unknown family"):
            build_family("blob:3")

    def test_bad_integer_position(self):
        with pytest.raises(FamilyGrammarError, match="position 2"):
            build_family("complete:4,x")

    def test_wrong_arity(self):
        with pytest.raises(FamilyGrammarError, match="parameter"):
            build_family("cycle:2")

    def test_cm_needs_two_counts(self):
        with pytest.raises(FamilyGrammarError, match="two pendant counts"):
            build_family("cm:3:4")

    def test_fano_takes_no_parameters(self):
        with pytest.raises(FamilyGrammarError):
            build_family("fano:1")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("blob:3", "unknown family 'blob' at position 1 of 'blob:3'"),
            ("", "unknown family '' at position 1 of ''"),
            ("complete:4,x", "complete:4,x: expected an integer at position 2, got 'x'"),
            ("cycle:2", "cycle:2: cycle takes 2 integer parameter(s), got 1"),
            ("cm:3", "cm:3: expected cm:k:n1,n2,..."),
            ("cm:3,4:1,2", "cm:3,4:1,2: cm needs a single k before the pendant list"),
            ("cm:3:4", "cm:3:4: cm needs at least two pendant counts"),
            ("cm:x:1,2", "cm:x:1,2: expected an integer at position 1, got 'x'"),
            ("fano:1", "fano takes no parameters"),
            ("fano:x", "fano takes no parameters"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(FamilyGrammarError) as exc:
            build_family(text)
        assert str(exc.value) == message


class TestParameterErrors:
    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: cycle(1, 3), "ring needs m >= 2 and k >= 2, got m=1, k=3"),
            (lambda: cycle(3, 1), "ring needs m >= 2 and k >= 2, got m=3, k=1"),
            (lambda: unicyclic_cm(3, [1]), "need at least 2 ring edges, got 1"),
            (lambda: unicyclic_cm(3, [1, -1]), "pendant counts must be >= 0, got [1, -1]"),
            (lambda: x_n(2, 3), "order 2 is too small for a ring with k=3"),
            (lambda: hyperstar(3, 0), "hyperstar needs s >= 1 and k >= 2, got s=0, k=3"),
            (lambda: hyperstar(1, 2), "hyperstar needs s >= 1 and k >= 2, got s=2, k=1"),
            (lambda: g_star_star(2), "needs k >= 3, got 2"),
            (lambda: random_uniform(3, 4, 1, random.Random(0)), "need 2 <= k <= n, got k=4, n=3"),
            (lambda: random_uniform(3, 1, 1, random.Random(0)), "need 2 <= k <= n, got k=1, n=3"),
            (lambda: unicyclic_catalog(1, 3), "need n_over >= 2, got 1"),
            (lambda: unicyclic_catalog(3, 1), "need k >= 2, got 1"),
        ],
        ids=["ring-m", "ring-k", "cm-one-edge", "cm-negative", "xn-small", "star-s", "star-k",
             "gss-k", "random-k-above-n", "random-k-1", "catalog-n-over", "catalog-k"],
    )
    def test_error_messages(self, call, message):
        with pytest.raises(HypergraphError) as exc:
            call()
        assert (type(exc.value), str(exc.value)) == (HypergraphError, message)
