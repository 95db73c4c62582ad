"""Acceptance gate: every shipping criterion runs here at its stated
tolerance, prints one pass/fail line, and enforces its runtime budget.

Expected values tagged as derived are recomputed by the independent
oracles (exhaustive walk enumeration, exact-trace series, rational
characteristic polynomials) before the pinned constants are asserted.
"""

import math
import random
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest

from hypestra import (
    Hypergraph,
    adjacency,
    bibd_validate,
    check_ee_lower_edges,
    check_ee_lower_spectral,
    check_ee_upper_edges,
    check_ee_upper_energy,
    check_moment2_bounds,
    check_nordhaus_gaddum,
    check_sum_t_largest_hypergraph,
    check_sum_t_largest_matrix,
    classify_two_eigenvalue,
    complete_uniform,
    cycle,
    distinct_eigenvalues,
    eigendecompose,
    estrada_index,
    fano_plane,
    random_uniform,
    spectrum_of,
    trace_power,
    verify_extremal,
    verify_ordering_lemmas,
    walk_count,
)
from hypestra.theorems import AS_WRITTEN, THETA_PLUS_ONE

from conftest import family_fixtures
from oracles import charpoly, charpoly_eval, dfs_walk_count, estrada_series, jacobi_eigh

GOLDEN = 1 + math.sqrt(5)


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"criterion {number} FAIL ({elapsed:.1f}s): {description}")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < budget_seconds
    verdict = "PASS" if within else "FAIL"
    print(
        f"criterion {number} {verdict} "
        f"({elapsed:.1f}s of {budget_seconds:.0f}s budget): {description}"
    )
    assert within, f"criterion {number} exceeded its runtime budget"


def test_criterion_1_eigensolver_soundness():
    with criterion(1, "eigensolver residual, trace and Frobenius identities", 10.0):
        rng = np.random.default_rng(1)
        matrices = []
        for _ in range(200):
            n = int(rng.integers(2, 21))
            raw = rng.integers(0, 4, size=(n, n))
            matrices.append((np.triu(raw) + np.triu(raw, 1).T).astype(float))
        matrices += [adjacency(h).astype(float) for _, h, _ in family_fixtures()]
        for m in matrices:
            fro = float(np.linalg.norm(m))
            trace = float(np.trace(m))
            # the oracle Jacobi solver: residual, trace and Frobenius
            values, vectors = jacobi_eigh(m)
            residual = np.linalg.norm(m - vectors @ np.diag(values) @ vectors.T)
            assert residual <= 1e-10 * max(1.0, fro)
            assert abs(values.sum() - trace) <= 1e-8 * max(1.0, abs(trace), fro)
            assert abs(np.sum(values**2) - fro**2) <= 1e-8 * max(1.0, fro**2)
            # the shipping solver: the same identities, and agreement with
            # the oracle eigenvalue by eigenvalue
            shipped = eigendecompose(m).eigenvalues
            assert abs(shipped.sum() - trace) <= 1e-8 * max(1.0, abs(trace), fro)
            assert abs(np.sum(shipped**2) - fro**2) <= 1e-8 * max(1.0, fro**2)
            assert np.max(np.abs(shipped - values)) <= 1e-10 * max(1.0, fro)


def test_criterion_2_walk_oracle_equivalence(small_fixtures):
    with criterion(2, "matrix-power walk counts match exhaustive enumeration", 30.0):
        for name, h, _ in small_fixtures:
            for s in range(5):
                for u in range(h.n):
                    for v in range(h.n):
                        assert walk_count(h, u, v, s) == dfs_walk_count(h, u, v, s), (
                            name,
                            u,
                            v,
                            s,
                        )


def _eight_checkers(h, k, spectrum):
    reports = [
        check_sum_t_largest_matrix(adjacency(h), 2, AS_WRITTEN, spectrum=spectrum),
        check_sum_t_largest_matrix(adjacency(h), 2, THETA_PLUS_ONE, spectrum=spectrum),
        *check_moment2_bounds(h, k, spectrum=spectrum),
        check_ee_lower_spectral(h, spectrum=spectrum),
        check_ee_lower_edges(h, k, spectrum=spectrum),
        check_ee_upper_edges(h, k, spectrum=spectrum),
        *check_ee_upper_energy(h, k, spectrum=spectrum),
        check_nordhaus_gaddum(h, k, spectrum=spectrum),
    ]
    for t in range(2, h.n + 1):
        for variant in (AS_WRITTEN, THETA_PLUS_ONE):
            reports.append(
                check_sum_t_largest_hypergraph(h, t, k, variant, spectrum=spectrum)
            )
    return reports


def test_criterion_3_bound_suite():
    with criterion(3, "bound catalog holds on 1000 random instances + fixtures", 120.0):
        rng = random.Random(3)
        instances = []
        for _ in range(1000):
            k = rng.choice((2, 3, 4))
            n = rng.randint(max(3, k), 12)
            m = rng.randint(1, min(math.comb(n, k), 4 * n))
            instances.append((random_uniform(n, k, m, rng), k))
        instances += [(h, k) for _, h, k in family_fixtures()]
        for h, k in instances:
            spectrum = spectrum_of(h)
            equality_flags = {}
            for report in _eight_checkers(h, k, spectrum):
                assert report.holds, (h, report.bound_id)
                equality_flags[report.bound_id] = report.equality
            for bound_id in ("thm4.1-ee-lower", "thm4.2-ee-upper", "rem4.4-ee-upper-energy"):
                assert equality_flags[bound_id] == (h.m == 0), (h, bound_id)


def test_criterion_4_two_eigenvalue_characterization():
    with criterion(4, "two-eigenvalue, balanced-design and flat-matrix equivalence", 60.0):
        triples = list(combinations(range(5), 3))
        for mask in range(2 ** len(triples)):
            edges = [t for i, t in enumerate(triples) if mask >> i & 1]
            h = Hypergraph(5, edges)
            two_distinct = len(distinct_eigenvalues(spectrum_of(h))) == 2
            cert = bibd_validate(h)
            a = adjacency(h)
            off = [a[i, j] for i in range(5) for j in range(5) if i != j]
            flat = all(x == off[0] for x in off) and off[0] >= 1
            classified = classify_two_eigenvalue(h, k=3)
            assert two_distinct == (cert is not None) == flat == (classified is not None)
        named = [fano_plane()]
        named += [
            complete_uniform(n, k) for n in range(3, 7) for k in range(2, n)
        ]
        for h in named:
            beta, cert = classify_two_eigenvalue(h)
            assert cert is not None
            assert cert.r * (cert.k - 1) == beta * (h.n - 1)
            assert cert.beta == beta


def test_criterion_5_ordering_lemmas():
    with criterion(5, "strict Estrada orderings for every case within 16 vertices", 120.0):
        for k in (3, 4):
            reports = verify_ordering_lemmas(k, 16)
            for report in reports:
                for inst in report.instances:
                    assert inst.strict_holds, (k, report.lemma_id, inst)
            populated = {r.lemma_id for r in reports if r.instances}
            assert "lemma4.2-pendant-shift" in populated, k
            assert "lemma2.6-ring-reduction" in populated, k
            assert "lemma4.3-ring3-to-ring2" in populated, k
            assert "remark4.11-ring3-vs-gss" in populated, k
            assert "ee-monotonicity" in populated, k
        # the three-ring consolidation needs 12 vertices at k=3
        k3 = {r.lemma_id: r for r in verify_ordering_lemmas(3, 16)}
        assert k3["lemma2.7-pendant-consolidation"].instances


def test_criterion_6_extremal_ranking():
    with criterion(6, "catalog maximum, runner-up and diameters as expected", 300.0):
        for k, n_over_values in ((3, (3, 4, 5, 6)), (4, (3, 4))):
            for n_over in n_over_values:
                report = verify_extremal(n_over, k)
                assert report.max_is_expected, (k, n_over)
                assert report.max_unique, (k, n_over)
                assert report.second_is_expected, (k, n_over)
                if n_over >= 4:
                    assert (report.diameter_max, report.diameter_second) == (2, 3)
                assert report.scope_note
                assert report.passed, (k, n_over)


def test_criterion_7_nordhaus_gaddum():
    with criterion(7, "complement-sum bound plus the pinned two-ring values", 30.0):
        for name, h, k in family_fixtures():
            report = check_nordhaus_gaddum(h, k)
            assert report.holds, name
        rng = random.Random(7)
        for _ in range(200):
            k = rng.choice((2, 3, 4))
            n = rng.randint(max(3, k), 12)
            m = rng.randint(1, min(math.comb(n, k), 4 * n))
            h = random_uniform(n, k, m, rng)
            assert check_nordhaus_gaddum(h, k).holds
        pinned = check_nordhaus_gaddum(cycle(2, 3), 3)
        assert abs(pinned.lhs - 53.72) < 5e-3
        assert abs(pinned.rhs - 12.603) < 5e-4


def test_criterion_8_pinned_regressions():
    with criterion(8, "pinned spectra and Estrada values, oracle-recomputed", 30.0):
        single = Hypergraph(3, [(0, 1, 2)])
        k43 = complete_uniform(4, 3)
        ring = cycle(2, 3)

        # recompute through the factorial series of exact traces first
        assert estrada_series(single) == pytest.approx(8.124815, abs=1e-5)
        assert estrada_series(k43) == pytest.approx(403.8348, abs=1e-3)
        assert estrada_index(spectrum_of(single)) == pytest.approx(8.124815, abs=1e-5)
        assert estrada_index(spectrum_of(k43)) == pytest.approx(403.8348, abs=1e-3)

        # certify the analytic two-ring spectrum with the exact
        # characteristic polynomial, then pin the solver output
        coeffs = charpoly(adjacency(ring).tolist())
        assert [float(c) for c in coeffs] == [1.0, 0.0, -8.0, -8.0, 0.0]
        expected = (GOLDEN, 0.0, 1 - math.sqrt(5), -2.0)
        for root in expected:
            assert abs(charpoly_eval(coeffs, root)) < 1e-9
        values = spectrum_of(ring).eigenvalues
        assert np.max(np.abs(values - np.array(expected))) <= 1e-9

        assert trace_power(adjacency(ring), 2) == 16
        assert float(np.sum(values**2)) == pytest.approx(16.0, abs=1e-8)
