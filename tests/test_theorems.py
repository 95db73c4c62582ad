import json
import math
import random
from collections import Counter

import numpy as np
import pytest

from hypestra import (
    AS_WRITTEN,
    CharacterizationMismatchError,
    FamilyGrammarError,
    Hypergraph,
    THETA_PLUS_ONE,
    adjacency,
    build_family,
    check_all_bounds,
    check_ee_lower_edges,
    check_ee_lower_spectral,
    check_ee_upper_edges,
    check_ee_upper_energy,
    check_moment2_bounds,
    check_nordhaus_gaddum,
    check_sum_t_largest_hypergraph,
    check_sum_t_largest_matrix,
    classify_two_eigenvalue,
    complement_uniform,
    complete_uniform,
    cycle,
    edgeless,
    estrada_index,
    extend_edge,
    fano_plane,
    g_star_star,
    path_p3,
    random_uniform,
    ring_reduction,
    shrink,
    spectrum_of,
    unicyclic_catalog,
    unicyclic_cm,
    verify_extremal,
    verify_ordering_lemmas,
)
from hypestra import hypercore, spectral, theorems
from hypestra.theorems import (
    bound_report_to_dict,
    bound_reports_to_csv,
    extremal_report_to_dict,
    ordering_reports_to_csv,
)

GOLDEN = 1 + math.sqrt(5)


def _ee(h):
    return estrada_index(spectrum_of(h))


class TestSumLargestMatrix:
    def test_zero_matrix_equality(self):
        report = check_sum_t_largest_matrix(np.zeros((4, 4)), 3)
        assert report.lhs == 0.0
        assert report.rhs == 0.0
        assert report.holds and report.equality

    def test_two_ring_values(self):
        report = check_sum_t_largest_matrix(adjacency(cycle(2, 3)), 2)
        assert report.lhs == pytest.approx(GOLDEN, abs=1e-9)
        assert report.rhs == pytest.approx(4 / 5 * (2 + math.sqrt(10)) * 2, abs=1e-9)
        assert report.holds and not report.equality
        assert report.extra["theta"] == 2
        assert report.extra["entry_max"] == 2.0

    def test_path_graph_stronger_variant(self):
        p4 = Hypergraph(4, [(0, 1), (1, 2), (2, 3)])
        report = check_sum_t_largest_matrix(adjacency(p4), 2, variant=THETA_PLUS_ONE)
        assert report.lhs == pytest.approx(math.sqrt(5), abs=1e-9)
        assert report.rhs == pytest.approx(4 / 6 * (2 + math.sqrt(10)), abs=1e-9)
        assert report.holds

    def test_variant_comparison_recorded(self):
        report = check_sum_t_largest_matrix(adjacency(cycle(2, 3)), 2)
        assert report.extra["rhs_theta_plus_one"] < report.extra["rhs_as_written"]
        assert report.extra["tighter_variant"] == THETA_PLUS_ONE
        assert report.extra["tau_lhs"] == pytest.approx(report.lhs / 4)

    def test_t_out_of_range(self):
        with pytest.raises(ValueError):
            check_sum_t_largest_matrix(adjacency(cycle(2, 3)), 1)
        with pytest.raises(ValueError):
            check_sum_t_largest_matrix(adjacency(cycle(2, 3)), 5)

    def test_negative_entry_matrix(self):
        m = np.array([[0.0, -1.0], [-1.0, 0.0]])
        report = check_sum_t_largest_matrix(m, 2)
        assert report.holds  # lhs = 0, rhs = 2*(core*(0+1) + 0)

    def test_asymmetric_matrix_rejected(self):
        # checked even when a spectrum is supplied: the solver would read
        # one triangle and never notice
        spectrum = spectrum_of(cycle(2, 3))
        lopsided = np.array(adjacency(cycle(2, 3)))
        lopsided[0, 3] = 5
        with pytest.raises(ValueError, match="symmetric"):
            check_sum_t_largest_matrix(lopsided, 2, spectrum=spectrum)

    def test_complex_matrix_rejected(self):
        hermitian = np.array(adjacency(cycle(2, 3)), dtype=complex)
        hermitian[0, 2], hermitian[2, 0] = 1j, -1j
        with pytest.raises(ValueError, match="real"):
            check_sum_t_largest_matrix(hermitian, 2)


class TestSumLargestHypergraph:
    def test_edgeless_equality(self):
        report = check_sum_t_largest_hypergraph(edgeless(5), 2, k=3)
        assert report.lhs == 0.0 and report.rhs == 0.0
        assert report.equality

    def test_two_ring(self):
        report = check_sum_t_largest_hypergraph(cycle(2, 3), 2)
        assert report.lhs == pytest.approx(GOLDEN, abs=1e-9)
        assert report.rhs == pytest.approx(8 / 5 * (2 + math.sqrt(10)), abs=1e-9)

    def test_complete_4_3(self):
        report = check_sum_t_largest_hypergraph(complete_uniform(4, 3), 2)
        assert report.lhs == pytest.approx(4.0, abs=1e-9)  # 6 + (-2)
        assert report.rhs == pytest.approx(8 / 7 * (3 + math.sqrt(21)), abs=1e-9)
        assert report.extra["theta"] == 3

    def test_every_t_on_fixtures(self, fixtures):
        for name, h, k in fixtures:
            spectrum = spectrum_of(h)
            for t in range(2, h.n + 1):
                for variant in (AS_WRITTEN, THETA_PLUS_ONE):
                    report = check_sum_t_largest_hypergraph(
                        h, t, k, variant, spectrum=spectrum
                    )
                    assert report.holds, (name, t, variant)

    def test_non_uniform_rejected(self):
        with pytest.raises(Exception, match="uniform"):
            check_sum_t_largest_hypergraph(Hypergraph(4, [(0, 1), (0, 1, 2)]), 2)


class TestMoment2:
    def test_single_edge_double_equality(self):
        lower, upper = check_moment2_bounds(Hypergraph(3, [(0, 1, 2)]))
        assert lower.lhs == 6.0 and lower.equality
        assert upper.rhs == 6.0 and upper.equality

    def test_two_ring(self):
        lower, upper = check_moment2_bounds(cycle(2, 3))
        assert lower.lhs == 12.0
        assert lower.rhs == pytest.approx(16.0, abs=1e-8)
        assert not lower.equality
        assert upper.rhs == 16.0
        assert upper.equality

    def test_complete_4_3(self):
        lower, upper = check_moment2_bounds(complete_uniform(4, 3))
        assert lower.lhs == 24.0
        assert upper.lhs == pytest.approx(48.0, abs=1e-8)
        assert upper.rhs == 48.0 and upper.equality


class TestEstradaBounds:
    def test_spectral_lower_examples(self):
        eq = check_ee_lower_spectral(edgeless(6))
        assert eq.equality and eq.rhs == pytest.approx(6.0)
        single = check_ee_lower_spectral(Hypergraph(3, [(0, 1, 2)]))
        assert single.rhs == pytest.approx(math.exp(2), abs=1e-9)
        assert single.holds and not single.equality
        k43 = check_ee_lower_spectral(complete_uniform(4, 3))
        assert k43.rhs == pytest.approx(math.exp(6) - 3, abs=1e-6)

    def test_edge_count_lower_examples(self):
        eq = check_ee_lower_edges(edgeless(5), k=3)
        assert eq.rhs == 5.0 and eq.equality
        single = check_ee_lower_edges(Hypergraph(3, [(0, 1, 2)]))
        assert single.rhs == pytest.approx(math.sqrt(21), abs=1e-12)
        k43 = check_ee_lower_edges(complete_uniform(4, 3))
        assert k43.rhs == pytest.approx(8.0, abs=1e-12)

    def test_edge_count_upper_examples(self):
        eq = check_ee_upper_edges(edgeless(5), k=3)
        assert eq.rhs == 5.0 and eq.equality
        single = check_ee_upper_edges(Hypergraph(3, [(0, 1, 2)]))
        assert single.rhs == pytest.approx(2 + math.exp(math.sqrt(6)), abs=1e-9)
        ring = check_ee_upper_edges(cycle(2, 3))
        assert ring.rhs == pytest.approx(3 + math.exp(4), abs=1e-9)

    def test_energy_upper_examples(self):
        refined, coarse = check_ee_upper_energy(edgeless(5), k=3)
        assert refined.rhs == 5.0 and refined.equality
        assert coarse.rhs == 5.0 and coarse.equality
        refined, coarse = check_ee_upper_energy(cycle(2, 3))
        assert refined.rhs == pytest.approx(4 + 2 * GOLDEN - 1 - 4 + math.exp(4), abs=1e-8)
        refined, coarse = check_ee_upper_energy(Hypergraph(3, [(0, 1, 2)]))
        assert coarse.rhs == pytest.approx(2 + math.exp(4), abs=1e-9)

    def test_equality_only_on_edgeless(self, fixtures):
        for name, h, k in fixtures:
            spectrum = spectrum_of(h)
            for report in (
                check_ee_lower_edges(h, k, spectrum=spectrum),
                check_ee_upper_edges(h, k, spectrum=spectrum),
                check_ee_upper_energy(h, k, spectrum=spectrum)[1],
            ):
                assert report.equality == (h.m == 0), (name, report.bound_id)


class TestNordhausGaddum:
    def test_two_ring_values(self):
        report = check_nordhaus_gaddum(cycle(2, 3))
        assert report.lhs == pytest.approx(2 * _ee(cycle(2, 3)), rel=1e-12)
        assert report.rhs == pytest.approx(
            2 * math.exp(1.5) + 6 * math.exp(-0.5), abs=1e-9
        )
        assert report.holds

    def test_edgeless_vs_complete(self):
        report = check_nordhaus_gaddum(edgeless(4), k=3)
        assert report.lhs == pytest.approx(4 + _ee(complete_uniform(4, 3)), rel=1e-12)
        assert report.holds

    def test_fano(self):
        report = check_nordhaus_gaddum(fano_plane())
        assert report.extra["ee"] == pytest.approx(
            math.exp(6) + 6 * math.exp(-1), rel=1e-10
        )
        assert report.extra["ee_complement"] == pytest.approx(
            math.exp(24) + 6 * math.exp(-4), rel=1e-10
        )
        assert report.rhs == pytest.approx(
            2 * math.exp(3) + 12 * math.exp(-0.5), abs=1e-9
        )
        assert report.holds and not report.equality

    def test_edgeless_requires_k(self):
        with pytest.raises(Exception, match="k"):
            check_nordhaus_gaddum(edgeless(4))


class TestComplementAdjacency:
    """The complement's pair counts come from C(n-2, k-2)(J - I) - A; the
    reference lists the complement's edges and builds their adjacency."""

    @staticmethod
    def _assert_closed_form(h, k, context):
        closed = theorems._complement_adjacency(adjacency(h), k)
        listed = adjacency(complement_uniform(h, k))
        assert closed.dtype == np.int64, context
        assert np.array_equal(closed, listed), context

    def test_fixtures(self, fixtures):
        for name, h, k in fixtures:
            self._assert_closed_form(h, k, name)

    def test_random_instances(self):
        rng = random.Random(20261018)
        for i in range(200):
            k = rng.choice((2, 3, 4))
            n = rng.randint(k, 12)
            m = rng.randint(0, math.comb(n, k))
            self._assert_closed_form(random_uniform(n, k, m, rng), k, (i, n, k, m))

    def test_edgeless_and_k_equals_n(self):
        for n in range(2, 9):
            for k in range(2, n + 1):
                self._assert_closed_form(edgeless(n), k, (n, k))
                self._assert_closed_form(complete_uniform(n, k), k, (n, k))
            self._assert_closed_form(Hypergraph(n, [tuple(range(n))]), n, n)

    def test_pair_count_past_int64_raises(self):
        # C(98, 49) > 2**63: refuse instead of wrapping
        with pytest.raises(OverflowError):
            theorems._complement_adjacency(np.zeros((100, 100), dtype=np.int64), 51)

    def test_check_lists_no_complement_edges(self, fixtures, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("complement edges listed")

        monkeypatch.setattr(hypercore, "complement_uniform", refuse)
        monkeypatch.setattr(theorems, "complement_uniform", refuse, raising=False)
        for name, h, k in fixtures:
            reports = check_all_bounds(h, k)
            assert "thm4.5-nordhaus-gaddum" in {r.bound_id for r in reports}, name


class TestTwoEigenvalueClassification:
    def test_fano(self):
        beta, cert = classify_two_eigenvalue(fano_plane())
        assert beta == 1
        assert cert.r == 3

    def test_complete_4_3(self):
        beta, cert = classify_two_eigenvalue(complete_uniform(4, 3))
        assert beta == 2
        assert cert.r == 2 * 3 // 2

    def test_two_ring_is_none(self):
        assert classify_two_eigenvalue(cycle(2, 3)) is None

    def test_boundary_block_equals_point_set(self):
        # a single complete edge has two distinct eigenvalues but designs
        # need the block size strictly below the point count
        beta, cert = classify_two_eigenvalue(complete_uniform(3, 3))
        assert beta == 1
        assert cert is None

    def test_disconnected_counterexample_surfaces(self):
        disconnected = Hypergraph(6, [(0, 1, 2), (3, 4, 5)])
        with pytest.raises(CharacterizationMismatchError, match="connected"):
            classify_two_eigenvalue(disconnected)

    def test_full_sweep_small(self):
        # the three descriptions agree on every 3-uniform hypergraph on 4
        # vertices (all 16 edge subsets)
        from itertools import combinations

        from hypestra import bibd_validate, distinct_eigenvalues

        triples = list(combinations(range(4), 3))
        for mask in range(2 ** len(triples)):
            edges = [t for i, t in enumerate(triples) if mask >> i & 1]
            h = Hypergraph(4, edges)
            result = classify_two_eigenvalue(h, k=3)
            two = len(distinct_eigenvalues(spectrum_of(h))) == 2
            assert (result is not None) == two
            cert = bibd_validate(h)
            assert (cert is not None) == two


class TestCheckAllBounds:
    EXPECTED_IDS = [
        "cor3.2-sum-largest",
        "ee-lower-spectral",
        "ee-monotonicity",
        "rem4.4-ee-upper-energy",
        "thm2.12-moment-lower",
        "thm2.12-moment-upper",
        "thm3.1-sum-largest",
        "thm4.1-ee-lower",
        "thm4.2-ee-upper",
        "thm4.3-ee-upper-energy",
        "thm4.5-nordhaus-gaddum",
    ]

    def test_two_ring_all_hold(self):
        reports = check_all_bounds(cycle(2, 3), 3)
        assert [r.bound_id for r in reports] == self.EXPECTED_IDS
        assert all(r.holds for r in reports)

    def test_complete_has_no_monotonicity_probe(self):
        reports = check_all_bounds(complete_uniform(4, 3), 3)
        assert "ee-monotonicity" not in [r.bound_id for r in reports]
        assert all(r.holds for r in reports)

    def test_fixtures_all_hold(self, fixtures):
        for name, h, k in fixtures:
            for report in check_all_bounds(h, k):
                assert report.holds, (name, report.bound_id)

    def test_random_sweep_holds(self):
        rng = random.Random(123)
        for _ in range(60):
            k = rng.choice((2, 3, 4))
            n = rng.randint(max(3, k), 10)
            m = rng.randint(1, min(math.comb(n, k), 2 * n))
            h = random_uniform(n, k, m, rng)
            for report in check_all_bounds(h, k):
                assert report.holds, (h, report.bound_id)

    def test_deterministic(self):
        a = check_all_bounds(cycle(2, 3), 3)
        b = check_all_bounds(cycle(2, 3), 3)
        assert [bound_report_to_dict(r) for r in a] == [bound_report_to_dict(r) for r in b]


class TestRingReduction:
    def test_four_ring_shape(self):
        h = cycle(4, 3)
        reduced = ring_reduction(h, 4, 3)
        # last ring edge {3, 0, 7} loses vertex 0 and reattaches at vertex 2
        assert reduced == Hypergraph(8, [(0, 1, 4), (1, 2, 5), (2, 3, 6), (2, 3, 7)])

    def test_requires_long_ring(self):
        h = cycle(3, 3)
        with pytest.raises(Exception, match="m >= 4"):
            ring_reduction(h, 3, 3)


class TestOrderingSuites:
    def test_pendant_shift_instance(self):
        assert _ee(unicyclic_cm(3, [2, 1])) < _ee(unicyclic_cm(3, [3, 0]))

    def test_ring3_to_ring2_instance(self):
        assert _ee(unicyclic_cm(3, [3, 0, 0])) < _ee(unicyclic_cm(3, [3, 1]))

    def test_ring3_vs_gss_instance(self):
        assert _ee(cycle(3, 3)) < _ee(g_star_star(3))

    def test_suite_all_strict(self):
        reports = verify_ordering_lemmas(3, 12)
        by_id = {r.lemma_id: r for r in reports}
        assert set(by_id) == {
            "lemma2.6-ring-reduction",
            "lemma2.7-pendant-consolidation",
            "lemma4.2-pendant-shift",
            "lemma4.3-ring3-to-ring2",
            "remark4.11-ring3-vs-gss",
            "ee-monotonicity",
        }
        for lemma_id, report in by_id.items():
            assert report.instances, lemma_id
            assert report.all_strict, lemma_id

    @pytest.mark.parametrize("k", [3, 4])
    def test_labels_rebuild_what_was_solved(self, k):
        rebuilt = 0
        for report in verify_ordering_lemmas(k, 16):
            for inst in report.instances:
                for label, ee in ((inst.left, inst.ee_left), (inst.right, inst.ee_right)):
                    try:
                        h = build_family(label)
                    except FamilyGrammarError:
                        continue  # report-only name, e.g. "...->reduced"
                    assert estrada_index(spectrum_of(h)) == ee, (report.lemma_id, label)
                    rebuilt += 1
        assert rebuilt > 0

    @pytest.mark.parametrize("k, distinct", [(3, 235), (4, 254)])
    def test_each_distinct_side_solved_once(self, k, distinct, monkeypatch):
        solved = 0
        solve = np.linalg.eigvalsh

        def counting(a):
            nonlocal solved
            solved += len(a) if a.ndim == 3 else 1
            return solve(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        verify_ordering_lemmas(k, 16)
        assert solved == distinct

    def test_path_surgery_matches_named_families(self):
        # re-wiring the path's first edge to close a ring reproduces the
        # three-ring; re-wiring it one vertex earlier reproduces the
        # filler-pendant shape (both keep one isolated vertex behind)
        # the path is (0, 1, 2), (2, 3, 4), (4, 5, 6): ends 0 and 6, cuts 2 and 4
        h = path_p3(3)
        first_edge_index = h.edge_index((0, 1, 2))
        stub_graph = shrink(h, 0, first_edge_index)
        stub = (1, 2)
        ring_closed = extend_edge(stub_graph, stub_graph.edge_index(stub), 6)
        gss_like = extend_edge(stub_graph, stub_graph.edge_index(stub), 3)
        assert _ee(ring_closed) == pytest.approx(_ee(cycle(3, 3)) + 1.0, rel=1e-12)
        assert _ee(gss_like) == pytest.approx(_ee(g_star_star(3)) + 1.0, rel=1e-12)
        assert _ee(ring_closed) < _ee(gss_like)


_SUITES = {
    "orderings-3-16": lambda: verify_ordering_lemmas(3, 16),
    "orderings-4-18": lambda: verify_ordering_lemmas(4, 18),
    "extremal-6-3": lambda: verify_extremal(6, 3),
    "extremal-4-4": lambda: verify_extremal(4, 4),
}


class TestStackedSuites:
    """Each suite hands all its hypergraphs to spectra_of at once, which
    makes one eigvalsh call per order and stack."""

    @pytest.mark.parametrize("limit", [None, 7])
    @pytest.mark.parametrize("suite", sorted(_SUITES))
    def test_one_solve_per_order_and_stack(self, suite, limit, monkeypatch):
        if limit is not None:
            monkeypatch.setattr(spectral, "_STACK_LIMIT", limit)
        received, calls = [], 0
        stacked, solve = theorems.spectra_of, np.linalg.eigvalsh

        def spy(hypergraphs):
            received.append(list(hypergraphs))
            return stacked(received[-1])

        def counting(a):
            nonlocal calls
            calls += 1
            return solve(a)

        monkeypatch.setattr(theorems, "spectra_of", spy)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        _SUITES[suite]()
        assert len(received) == 1
        orders = Counter(h.n for h in received[0])
        stacks = sum(math.ceil(count / spectral._STACK_LIMIT) for count in orders.values())
        assert calls == stacks
        if limit is not None:
            assert stacks > len(orders)

    @pytest.mark.parametrize("suite", sorted(_SUITES))
    def test_reports_equal_one_at_a_time(self, suite, monkeypatch):
        stacked = _SUITES[suite]()
        monkeypatch.setattr(theorems, "spectra_of", lambda hs: [spectrum_of(h) for h in hs])
        assert _SUITES[suite]() == stacked


class TestExtremal:
    def test_smallest_case_ranking(self):
        report = verify_extremal(3, 3)
        assert report.passed
        assert "cm:3:1,0" in report.max_labels
        assert report.expected_second_label in report.second_labels
        assert report.ranking[0][1] > report.ranking[-1][1]

    def test_n_over_4(self):
        report = verify_extremal(4, 3)
        assert report.passed
        assert "cm:3:2,0" in report.max_labels
        assert report.second_labels == ("cm:3:1,1",)
        assert (report.diameter_max, report.diameter_second) == (2, 3)

    def test_n_over_6_diameters(self):
        report = verify_extremal(6, 3)
        assert report.passed
        assert "cm:3:4,0" in report.max_labels
        assert "cm:3:3,1" in report.second_labels
        assert (report.diameter_max, report.diameter_second) == (2, 3)

    def test_k4(self):
        report = verify_extremal(4, 4)
        assert report.passed

    @pytest.mark.parametrize("k,n_over", [(3, 3), (3, 4), (3, 5), (3, 6), (4, 3), (4, 4)])
    def test_cm_labels_build_their_catalog_entry(self, k, n_over):
        catalog = {e.label: e.hypergraph for e in unicyclic_catalog(n_over, k)}
        cm_labels = [
            label for label, _ in verify_extremal(n_over, k).ranking
            if label.startswith("cm:") and "+" not in label
        ]
        assert cm_labels
        for label in cm_labels:
            assert build_family(label) == catalog[label], label
        deep = [label for label in catalog if "+deep@" in label]
        for label in deep:
            with pytest.raises(FamilyGrammarError):
                build_family(label)

    @pytest.mark.parametrize("k,n_over", [(3, 3), (4, 3), (3, 5)])
    def test_leaders_checked_by_catalog_label(self, k, n_over, monkeypatch):
        # the expected leaders are catalog entries: nothing is rebuilt
        def refuse(text):
            raise AssertionError(f"rebuilt {text}")

        monkeypatch.setattr(theorems.fam, "build_family", refuse)
        report = verify_extremal(n_over, k)
        assert report.passed
        assert report.expected_max_label in report.max_labels
        assert report.expected_second_label in report.second_labels

    def test_ties_rank_by_label_whatever_the_noise(self, monkeypatch):
        clean = verify_extremal(6, 3).ranking
        values = [ee for _, ee in clean]
        assert values == sorted(values, reverse=True)
        for (label_a, ee_a), (label_b, ee_b) in zip(clean, clean[1:]):
            if ee_a == ee_b:
                assert label_a < label_b
        # last-bit noise on every solved matrix must not reorder tied
        # entries; a stacked call draws one factor per matrix, not per call
        solve = np.linalg.eigvalsh
        rng = random.Random(11)

        def jitter(a):
            values = solve(a)
            shape = values.shape[:-1]
            factors = [1 + rng.choice((-4e-16, 4e-16)) for _ in range(math.prod(shape))]
            return values * np.reshape(factors, shape + (1,))

        monkeypatch.setattr(np.linalg, "eigvalsh", jitter)
        noisy = verify_extremal(6, 3).ranking
        assert [label for label, _ in noisy] == [label for label, _ in clean]

    def test_scope_note_present(self):
        report = verify_extremal(3, 3)
        assert "subset" in report.scope_note
        payload = extremal_report_to_dict(report)
        assert payload["scope_note"] == report.scope_note
        assert payload["passed"] is True


class TestSerialization:
    def test_csv_columns(self):
        reports = check_all_bounds(cycle(2, 3), 3)
        text = bound_reports_to_csv(reports)
        lines = text.strip().split("\n")
        assert lines[0] == "bound_id,n,m,k,t,lhs,rhs,slack,holds,equality"
        assert len(lines) == len(reports) + 1
        first = lines[1].split(",")
        assert first[0] == "cor3.2-sum-largest"
        assert first[1:5] == ["4", "2", "3", "2"]
        assert first[8] == "true"

    def test_json_round_trip(self):
        reports = check_all_bounds(cycle(2, 3), 3)
        payload = json.dumps([bound_report_to_dict(r) for r in reports])
        parsed = json.loads(payload)
        assert parsed[0]["bound_id"] == "cor3.2-sum-largest"
        assert all(entry["holds"] for entry in parsed)

    def test_ordering_csv(self):
        reports = verify_ordering_lemmas(3, 8)
        text = ordering_reports_to_csv(reports)
        lines = text.strip().split("\n")
        assert lines[0] == "lemma_id,left,right,ee_left,ee_right,gap,strict_holds"
        assert all(line.endswith(",true") for line in lines[1:])
