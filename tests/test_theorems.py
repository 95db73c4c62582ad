import json
import math
import random
import re
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from hypestra import (
    AS_WRITTEN,
    CharacterizationMismatchError,
    FamilyGrammarError,
    Hypergraph,
    HypergraphError,
    THETA_PLUS_ONE,
    add_edge,
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
from hypestra import cli, hypercore, spectral, theorems
from hypestra.hypercore import uniformity
from hypestra.spectral import negative_count, spectral_moment

from conftest import criterion_3_sample, family_fixtures
from oracles import bound_facts

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

    def test_t_past_half_reads_the_trace(self):
        # the n - t smallest are taken off the exact trace: at t = n the lhs
        # is the trace itself, not a sum of rounded eigenvalues
        rng = np.random.default_rng(8)
        for n in range(2, 9):
            m = rng.normal(size=(n, n))
            m = m + m.T
            ints = rng.integers(-5, 6, size=(n, n))
            ints = ints + ints.T
            for matrix, trace in ((m, math.fsum(m.diagonal())), (ints, float(ints.trace()))):
                values = np.linalg.eigvalsh(matrix)[::-1]
                for t in range(2, n + 1):
                    lhs = check_sum_t_largest_matrix(matrix, t).lhs
                    assert lhs == pytest.approx(float(values[:t].sum()), abs=1e-9), (n, t)
                assert check_sum_t_largest_matrix(matrix, n).lhs == trace, n

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

    def test_int_slack_decides_exactly(self):
        # a side of 10**12 one below the other: within _compare's relative
        # bound of the sides, but an int slack of 1 is no equality
        big = 10**12
        assert theorems._report("x", big, big + 1, "le", {}).equality
        for slack, verdict in ((1, (True, False)), (0, (True, True)), (-1, (False, False))):
            report = theorems._report("x", big, big + slack, "le", {}, slack=slack)
            assert (report.holds, report.equality) == verdict, slack
            assert report.slack == float(slack)


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

    #: the README catalog rows whose equality column reads "edgeless"
    EDGELESS_ROWS = {
        "cor3.2-sum-largest", "ee-lower-spectral", "thm4.1-ee-lower", "thm4.2-ee-upper",
        "thm4.3-ee-upper-energy", "rem4.4-ee-upper-energy",
    }

    def test_spectral_lower_equality_only_on_edgeless(self):
        # the README's equality column: exp(l1) + (n-1) - l1, and every
        # other "edgeless" row, is attained exactly by the edgeless hypergraph
        sample = [
            *criterion_3_sample(),
            *(complete_uniform(n, 3) for n in range(7, 16)),
            *(complete_uniform(n, 4) for n in range(6, 11)),
        ]
        for h in sample:
            report = check_ee_lower_spectral(h)
            assert report.holds and report.slack >= 0, h
            assert report.equality == (h.m == 0), h
            if h.n < 2:
                continue  # the catalog's t = 2 needs two vertices
            reports = [
                r for r in check_all_bounds(h, None if h.m else 2) if r.bound_id in self.EDGELESS_ROWS
            ]
            assert {r.bound_id for r in reports} == self.EDGELESS_ROWS, h
            for r in reports:
                assert r.holds and r.equality == (h.m == 0), (h, r.bound_id)

    def test_spectral_lower_slack_without_cancellation(self):
        # complete_uniform(n, 3) has A = (n-2)(J - I): eigenvalue
        # (n-2)(n-1) once and -(n-2) n-1 times, so the slack is
        # (n-1)(exp(-(n-2)) - 1 + (n-2)), while EE is near exp((n-2)(n-1))
        for n, slack in ((7, 24.0404276819), (8, 35.0173512652)):
            report = check_ee_lower_spectral(complete_uniform(n, 3))
            exact = (n - 1) * (math.exp(2 - n) - 1 + (n - 2))
            assert report.slack == pytest.approx(exact, rel=1e-12), n
            assert report.slack == pytest.approx(slack, abs=1e-10), n
            assert not report.equality, n

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

    def test_all_eigenvalues_sum_to_zero_under_any_labels(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(6, 12)
            h = random_uniform(n, 3, rng.randint(1, min(math.comb(n, 3), 3 * n)), rng)
            perm = rng.sample(range(n), n)
            relabelled = Hypergraph(n, [[perm[v] for v in e] for e in h.edges])
            for g in (h, relabelled):
                for r in check_all_bounds(g, 3, t=n):
                    if r.bound_id.endswith("-sum-largest"):
                        assert r.lhs == 0.0 and math.copysign(1.0, r.lhs) == 1.0, (h, r.bound_id)
                        assert r.slack == r.rhs, (h, r.bound_id)

    def test_reports_share_no_dict(self):
        for _, h, k in _check_instances():
            try:
                reports = check_all_bounds(h, k, t=min(3, h.n)) if h.n >= 2 else []
            except OverflowError:
                continue
            for i, report in enumerate(reports):
                for field in ("inputs", "extra"):
                    before = [repr(vars(r)) for r in reports]
                    getattr(report, field)["edited"] = True
                    after = [repr(vars(r)) for r in reports]
                    del getattr(report, field)["edited"]
                    changed = [j for j, (a, b) in enumerate(zip(before, after)) if a != b]
                    assert changed == [i], (h, report.bound_id, field)

    def test_deterministic(self):
        a = check_all_bounds(cycle(2, 3), 3)
        b = check_all_bounds(cycle(2, 3), 3)
        assert [vars(r) for r in a] == [vars(r) for r in b]

    @pytest.mark.parametrize("claim", ["le", "ge"])
    def test_slack_at_the_bound_is_equality(self, claim):
        # |slack| equal to _compare's bound is equality, on either side;
        # one step past it below zero fails
        rtol = spectral._RTOL
        for lhs, rhs in ((0.0, rtol), (rtol, 0.0)):
            report = theorems._report("x", lhs, rhs, claim, {})
            assert abs(report.slack) == rtol
            assert (report.holds, report.equality) == (True, True), (lhs, rhs)
        past = math.nextafter(rtol, 1)
        lhs, rhs = (past, 0.0) if claim == "le" else (0.0, past)
        report = theorems._report("x", lhs, rhs, claim, {})
        assert (report.holds, report.equality) == (False, False)


def _check_instances():
    """Every conftest fixture, then 200 seeded random instances with
    k in {2, 3, 4} and n <= 12, every tenth edgeless and every tenth
    complete."""
    yield from family_fixtures()
    rng = random.Random(20261018)
    for i in range(200):
        k = rng.choice((2, 3, 4))
        n = rng.randint(k, 12)
        if i % 10 == 0:
            m = 0
        elif i % 10 == 1:
            m = math.comb(n, k)
        else:
            m = rng.randint(0, math.comb(n, k))
        yield i, random_uniform(n, k, m, rng), k


def _first_missing(h, k):
    present = set(h.edges)
    return next((e for e in combinations(range(h.n), k) if e not in present), None)


def _one_by_one(h, k, t):
    """check_all_bounds rebuilt from the public checkers, each making its
    own solve, and the probe scored on the hypergraph with the edge added."""
    reports = [
        check_sum_t_largest_matrix(adjacency(h), t),
        check_sum_t_largest_hypergraph(h, t, k),
        *check_moment2_bounds(h, k),
        check_ee_lower_spectral(h),
        check_ee_lower_edges(h, k),
        check_ee_upper_edges(h, k),
        *check_ee_upper_energy(h, k),
        check_nordhaus_gaddum(h, k),
    ]
    e = _first_missing(h, k)
    if e is not None:
        grown = estrada_index(spectrum_of(add_edge(h, e)))
        inputs = {"n": h.n, "m": h.m, "k": k, "t": None}
        reports.append(
            theorems._report(
                "ee-monotonicity", _ee(h), grown, "le", inputs, {"added_edge": list(e)}
            )
        )
    return sorted(reports, key=lambda r: r.bound_id)


class TestCheckAllBoundsOneSolve:
    """check_all_bounds solves h, its complement and the probe as one
    stack in one eigvalsh call, and its reports equal those of the public
    checkers called one by one."""

    def test_one_call_same_reports(self, monkeypatch):
        solve = np.linalg.eigvalsh
        shapes = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or solve(a))
        for name, h, k in _check_instances():
            stack = (2 if _first_missing(h, k) is None else 3, h.n, h.n)
            for t in sorted({2, h.n}):
                with monkeypatch.context() as lone:
                    lone.setattr(np.linalg, "eigvalsh", solve)
                    try:
                        expected = _one_by_one(h, k, t)
                    except OverflowError as exc:
                        expected = exc
                shapes.clear()
                if isinstance(expected, OverflowError):
                    # a bound past double precision: the same error from
                    # the same bound, after the same one solve
                    with pytest.raises(OverflowError, match=f"^{re.escape(str(expected))}$"):
                        check_all_bounds(h, k, t)
                    assert shapes == [stack], (name, t)
                    continue
                reports = check_all_bounds(h, k, t)
                assert shapes == [stack], (name, t)
                assert len(reports) == len(expected), (name, t)
                for got, want in zip(reports, expected):
                    for key in vars(want):
                        assert getattr(got, key) == getattr(want, key), (name, t, key)

    def test_complete_solves_two(self, monkeypatch):
        shapes, solve = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or solve(a))
        check_all_bounds(complete_uniform(6, 3), 3)
        check_all_bounds(cycle(2, 3), 3)
        assert shapes == [(2, 6, 6), (3, 4, 4)]


class TestCheckAllBoundsFactsOnce:
    """check_all_bounds resolves k once and sums each solved matrix's
    Estrada index once: h's, its complement's and, when a k-subset is
    missing, the edge-addition probe's."""

    def test_each_fact_computed_once(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(theorems, "uniformity", counted("k", hypercore.uniformity))
        monkeypatch.setattr(theorems, "_estrada", counted("ee", spectral._estrada))
        checked = 0
        for name, h, k in _check_instances():
            solved = 2 if _first_missing(h, k) is None else 3
            calls.clear()
            try:
                check_all_bounds(h, k)
            except OverflowError:
                assert calls["k"] == 1 and calls["ee"] <= solved, name
                continue
            assert calls == {"k": 1, "ee": solved}, name
            checked += 1
        assert checked > 200


class TestCheckAllBoundsFloor:
    """check_all_bounds reads each spectral fact once: theta once for both
    sum-of-largest bounds, the library's A without re-validation, and the
    second moment without an object-dtype pass."""

    def test_theta_once_and_no_revalidation(self, fixtures, monkeypatch):
        calls = Counter()

        def counted(spectrum):
            calls["theta"] += 1
            return negative_count(spectrum)

        def refuse(*args):
            raise AssertionError("library-built adjacency re-validated")

        monkeypatch.setattr(theorems, "negative_count", counted)
        monkeypatch.setattr(theorems, "as_symmetric", refuse)
        for name, h, k in fixtures:
            calls.clear()
            check_all_bounds(h, k, t=2)
            assert calls == {"theta": 1}, name

    def test_second_moment_without_object_dtype(self, fixtures, monkeypatch):
        rng = random.Random(64)
        wide = [random_uniform(64, 3, 128, rng), random_uniform(64, 2, 128, rng)]
        cases = [(h, k) for _, h, k in fixtures] + [(h, uniformity(h)) for h in wide]
        expected = [spectral_moment(spectrum_of(h), 2) for h, _ in cases]

        def refuse(matrix):
            raise AssertionError("object-dtype pass")

        monkeypatch.setattr(spectral, "_exact", refuse)
        for (h, k), m2 in zip(cases, expected):
            try:
                reports = {r.bound_id: r for r in check_all_bounds(h, k)}
            except OverflowError:
                # the complement's Estrada sum of the 3-uniform n = 64 input
                # leaves double precision; its moments are read alone
                assert h.n == 64 and k == 3
                lower, upper = check_moment2_bounds(h, k)
                reports = {r.bound_id: r for r in (lower, upper)}
            assert reports["thm2.12-moment-upper"].lhs == float(m2), (h.n, h.m)
            assert reports["thm2.12-moment-lower"].rhs == float(m2), (h.n, h.m)
            assert isinstance(m2, int)


class TestBoundFactsAgainstOracle:
    """The spectral facts in check_all_bounds' reports are bitwise those
    that tests/oracles.bound_facts reads off numpy's solver: numpy sums for
    the t largest eigenvalues (for t > n/2, the trace less the n - t
    smallest) and the energy, a left-to-right exp sum for each Estrada
    index.  At t >= 8 a sum in another order gives other bits."""

    def test_bitwise_equal(self):
        checked = 0
        for h in criterion_3_sample():
            if h.n < 9:
                continue
            k = uniformity(h)
            for t in sorted({2, 8, h.n}):
                want = bound_facts(h, k, t)
                reports = {r.bound_id: r for r in check_all_bounds(h, k, t)}
                for bound_id in ("cor3.2-sum-largest", "thm3.1-sum-largest"):
                    assert reports[bound_id].lhs == want["sum_largest"], (h, t, bound_id)
                    assert reports[bound_id].extra["theta"] == want["theta"], (h, t, bound_id)
                for bound_id in ("thm4.3-ee-upper-energy", "rem4.4-ee-upper-energy"):
                    assert reports[bound_id].extra["energy"] == want["energy"], (h, t, bound_id)
                ng = reports["thm4.5-nordhaus-gaddum"].extra
                assert (ng["ee"], ng["ee_complement"]) == (want["ee"], want["ee_complement"]), h
                probe = reports.get("ee-monotonicity")
                assert (None if probe is None else probe.rhs) == want["ee_probe"], h
                checked += 1
        assert checked == 1266


#: a 2-uniform ring plus one 3-edge
_MIXED = Hypergraph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 1, 2)])


def _huge():
    """The complete 3-uniform hypergraph on 40 vertices: lambda1 = 1482,
    so its Estrada sum overflows."""
    return complete_uniform(40, 3)


def _huge_mixed():
    return Hypergraph(40, [*complete_uniform(40, 3).edges, (0, 1)])


_UNIFORM = "operation requires a uniform hypergraph"
_EE_OVERFLOW = "estrada index overflows double precision (lambda1=1482)"
_EXP = "math range error"


class TestErrorPrecedence:
    """Each public checker, called alone, raises the first error its bound
    meets; facts computed once must not reorder them.  None means the
    checker returns its reports."""

    @pytest.mark.parametrize(
        "call,error,message",
        [
            # non-uniform input
            (lambda: check_sum_t_largest_hypergraph(_MIXED, 2), HypergraphError, _UNIFORM),
            (lambda: check_moment2_bounds(_MIXED), HypergraphError, _UNIFORM),
            (lambda: check_ee_lower_spectral(_MIXED), None, None),
            (lambda: check_ee_lower_edges(_MIXED), HypergraphError, _UNIFORM),
            (lambda: check_ee_upper_edges(_MIXED), HypergraphError, _UNIFORM),
            (lambda: check_ee_upper_energy(_MIXED), HypergraphError, _UNIFORM),
            (lambda: check_nordhaus_gaddum(_MIXED), HypergraphError, _UNIFORM),
            (lambda: check_all_bounds(_MIXED), HypergraphError, _UNIFORM),
            (lambda: check_sum_t_largest_matrix(adjacency(_MIXED), 2), None, None),
            # the t range comes before uniformity
            (
                lambda: check_sum_t_largest_hypergraph(_MIXED, 1),
                ValueError,
                "need 2 <= t <= n, got t=1, n=4",
            ),
            (
                lambda: check_sum_t_largest_hypergraph(_MIXED, 5),
                ValueError,
                "need 2 <= t <= n, got t=5, n=4",
            ),
            (
                lambda: check_sum_t_largest_matrix(adjacency(_MIXED), 5),
                ValueError,
                "need 2 <= t <= n, got t=5, n=4",
            ),
            (lambda: check_all_bounds(_MIXED, t=5), HypergraphError, _UNIFORM),
            # edgeless input without k
            (
                lambda: check_nordhaus_gaddum(edgeless(4)),
                HypergraphError,
                "complement of an edgeless hypergraph needs an explicit k",
            ),
            (
                lambda: check_all_bounds(edgeless(4)),
                HypergraphError,
                "complement of an edgeless hypergraph needs an explicit k",
            ),
            # an Estrada sum past double precision
            (lambda: check_sum_t_largest_hypergraph(_huge(), 2), None, None),
            (lambda: check_moment2_bounds(_huge()), None, None),
            (lambda: check_ee_lower_spectral(_huge()), OverflowError, _EE_OVERFLOW),
            (lambda: check_ee_lower_edges(_huge()), OverflowError, _EE_OVERFLOW),
            (lambda: check_ee_upper_edges(_huge()), OverflowError, _EE_OVERFLOW),
            (lambda: check_ee_upper_energy(_huge()), OverflowError, _EE_OVERFLOW),
            (lambda: check_nordhaus_gaddum(_huge()), OverflowError, _EE_OVERFLOW),
            (lambda: check_all_bounds(_huge()), OverflowError, _EE_OVERFLOW),
            (
                lambda: check_all_bounds(_huge(), 3, 41),
                ValueError,
                "need 2 <= t <= n, got t=41, n=40",
            ),
            (
                lambda: check_ee_lower_spectral(_huge_mixed()),
                OverflowError,
                "estrada index overflows double precision (lambda1=1482.05)",
            ),
            (lambda: check_ee_lower_edges(_huge_mixed()), HypergraphError, _UNIFORM),
            # a finite Estrada index, but exp(sqrt((k-1)m(m(k-2)+2))) overflows
            (lambda: check_ee_lower_edges(complete_uniform(16, 3)), None, None),
            (lambda: check_ee_upper_edges(complete_uniform(16, 3)), OverflowError, _EXP),
            (lambda: check_ee_upper_energy(complete_uniform(16, 3)), OverflowError, _EXP),
            (lambda: check_nordhaus_gaddum(complete_uniform(16, 3)), None, None),
            (lambda: check_all_bounds(complete_uniform(16, 3)), OverflowError, _EXP),
        ],
    )
    def test_first_error(self, call, error, message):
        if error is None:
            call()
            return
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()


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

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_budget_below_k_plus_one_checks_nothing_and_raises(self, k):
        for budget in (-1, 0, k):
            with pytest.raises(HypergraphError, match=f"size budget of {budget} at k={k}"):
                verify_ordering_lemmas(k, budget)
        assert any(r.instances for r in verify_ordering_lemmas(k, k + 1))

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

    def test_scope_note_present(self, capsys):
        report = verify_extremal(3, 3)
        assert "subset" in report.scope_note
        payload = json.loads(_cli(capsys, "verify", "extremal", "--nover", "3", "--format", "json"))
        assert payload["scope_note"] == report.scope_note
        assert payload["passed"] is True


def _cli(capsys, *argv) -> str:
    """Stdout of one passing ``hypestra`` call."""
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def _read_back(value):
    """value as JSON stores it: every tuple becomes a list."""
    if isinstance(value, (list, tuple)):
        return [_read_back(v) for v in value]
    if isinstance(value, dict):
        return {key: _read_back(v) for key, v in value.items()}
    return value


class TestSerialization:
    """Reports as the command line writes them."""

    @pytest.fixture
    def c23(self, capsys, tmp_path):
        path = str(tmp_path / "c23.txt")
        _cli(capsys, "gen", "cycle:2,3", "--out", path)
        return path

    def test_csv_columns(self, capsys, c23):
        reports = check_all_bounds(cycle(2, 3), 3)
        text = _cli(capsys, "check", c23, "--k", "3", "--format", "csv")
        lines = text.strip().split("\n")
        assert lines[0] == "bound_id,n,m,k,t,lhs,rhs,slack,holds,equality"
        assert len(lines) == len(reports) + 1
        first = lines[1].split(",")
        assert first[0] == "cor3.2-sum-largest"
        assert first[1:5] == ["4", "2", "3", "2"]
        assert first[8] == "true"

    def test_json_round_trip(self, capsys, c23):
        parsed = json.loads(_cli(capsys, "check", c23, "--k", "3", "--format", "json"))
        assert parsed[0]["bound_id"] == "cor3.2-sum-largest"
        assert all(entry["holds"] for entry in parsed)

    def test_json_payloads_are_the_report_fields(self, capsys, c23):
        reports = check_all_bounds(cycle(2, 3), 3)
        parsed = json.loads(_cli(capsys, "check", c23, "--k", "3", "--format", "json"))
        assert parsed == [_read_back(vars(r)) for r in reports]
        assert [list(entry) for entry in parsed] == [list(vars(r)) for r in reports]
        report = verify_extremal(4, 3)
        argv = ("verify", "extremal", "--nover", "4", "--k", "3", "--format", "json")
        parsed = json.loads(_cli(capsys, *argv))
        assert parsed == _read_back(vars(report))
        assert list(parsed) == list(vars(report))

    def test_ordering_csv(self, capsys):
        argv = ("verify", "orderings", "--k", "3", "--budget", "8", "--format", "csv")
        lines = _cli(capsys, *argv).strip().split("\n")
        assert lines[0] == "lemma_id,left,right,ee_left,ee_right,gap,strict_holds"
        assert all(line.endswith(",true") for line in lines[1:])


class TestSuiteParameterErrors:
    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: verify_ordering_lemmas(2, 14), "ordering suites need k >= 3, got 2"),
            (lambda: verify_extremal(2, 3), "extremal ranking needs n_over >= 3, got 2"),
            (lambda: verify_extremal(4, 2), "extremal ranking needs k >= 3, got 2"),
        ],
        ids=["orderings-k", "extremal-n-over", "extremal-k"],
    )
    def test_error_messages(self, call, message):
        with pytest.raises(HypergraphError) as exc:
            call()
        assert str(exc.value) == message
