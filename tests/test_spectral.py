import math
import random
import time

import numpy as np
import pytest

from hypestra import (
    Hypergraph,
    add_edge,
    adjacency,
    closed_walk_counts,
    closed_walk_table,
    complete_uniform,
    cycle,
    distinct_eigenvalues,
    edgeless,
    eigendecompose,
    energy,
    estrada_index,
    negative_count,
    positive_count,
    random_uniform,
    spectral_moment,
    spectra_of,
    spectrum_of,
    summarize,
    trace_power,
    unicyclic_cm,
    walk_count,
    walk_dominance,
)
from hypestra import spectral
from hypestra.spectral import format_float, spectrum_to_csv, summary_to_dict

from conftest import family_fixtures

from oracles import (
    ConvergenceError,
    charpoly,
    charpoly_eval,
    dfs_walk_count,
    estrada_series,
    jacobi_eigh,
)

GOLDEN = 1 + math.sqrt(5)


def _random_symmetric(rng, n, high=4):
    m = rng.integers(0, high, size=(n, n))
    return (np.triu(m) + np.triu(m, 1).T).astype(float)


class TestAdjacency:
    def test_single_edge_pattern(self):
        a = adjacency(Hypergraph(3, [(0, 1, 2)]))
        expected = np.ones((3, 3)) - np.eye(3)
        assert np.array_equal(a, expected)

    def test_two_ring_pattern(self):
        a = adjacency(cycle(2, 3))
        expected = np.array(
            [[0, 2, 1, 1], [2, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]], dtype=float
        )
        assert np.array_equal(a, expected)
        assert a.min() == 0
        assert a.max() == 2

    def test_complete_4_3_pattern(self):
        a = adjacency(complete_uniform(4, 3))
        expected = 2 * (np.ones((4, 4)) - np.eye(4))
        assert np.array_equal(a, expected)

    def test_mixed_edge_sizes(self):
        a = adjacency(Hypergraph(5, [(0, 1), (0, 1, 2), (1, 2, 3, 4)]))
        expected = np.zeros((5, 5), dtype=int)
        for e in ((0, 1), (0, 1, 2), (1, 2, 3, 4)):
            for x in e:
                for y in e:
                    expected[x, y] += x != y
        assert np.array_equal(a, expected)

    def test_read_only_int64(self):
        a = adjacency(cycle(2, 3))
        assert a.dtype == np.int64
        with pytest.raises(ValueError):
            a[0, 1] = 5
        assert adjacency(edgeless(0)).shape == (0, 0)

    def test_symmetry_required(self):
        with pytest.raises(ValueError, match="symmetric"):
            eigendecompose([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            eigendecompose([[0.0, math.inf], [math.inf, 0.0]])
        with pytest.raises(ValueError, match="square"):
            eigendecompose(np.zeros((2, 3)))

    def test_complex_input_rejected(self):
        # a cast to float would keep only the real part: [0, 0], not [1, -1]
        with pytest.raises(ValueError, match="real"):
            eigendecompose([[0, 1j], [-1j, 0]])
        with pytest.raises(ValueError, match="real"):
            eigendecompose(np.eye(2, dtype=complex))


class TestStackedSpectra:
    """spectra_of solves same-order hypergraphs in stacks; every spectrum
    must be bitwise the one spectrum_of gives for that hypergraph alone."""

    def _batch(self):
        rng = random.Random(5)
        hs = [h for _, h, _ in family_fixtures()]
        hs += [Hypergraph(0, []), Hypergraph(1, []), Hypergraph(5, [(0, 1), (0, 1, 2), (1, 2, 3, 4)])]
        # more order-8 hypergraphs than one stack holds
        hs += [
            random_uniform(8, 3, rng.randint(1, 20), rng)
            for _ in range(spectral._STACK_LIMIT + 5)
        ]
        rng.shuffle(hs)
        return hs

    @pytest.mark.parametrize("limit", [None, 3])
    def test_equals_one_at_a_time(self, limit, monkeypatch):
        if limit is not None:
            monkeypatch.setattr(spectral, "_STACK_LIMIT", limit)
        hs = self._batch()
        stacked = spectra_of(hs)
        assert len(stacked) == len(hs)
        for h, got in zip(hs, stacked):
            alone = spectrum_of(h)
            assert np.array_equal(got.eigenvalues, alone.eigenvalues), h
            assert np.array_equal(got.matrix, alone.matrix), h
            assert got.matrix.dtype == alone.matrix.dtype == np.int64
            assert got.zero_tolerance == alone.zero_tolerance, h
            assert got.frobenius_norm == alone.frobenius_norm, h

    def test_float_matrices_match_the_plain_norm(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 7, 16):
            m = rng.normal(size=(n, n))
            m = m + m.T
            spectrum = eigendecompose(m)
            assert spectrum.frobenius_norm == float(np.linalg.norm(m))
            assert np.array_equal(spectrum.eigenvalues, np.linalg.eigvalsh(m)[::-1])

    def test_empty_and_read_only(self):
        assert spectra_of([]) == []
        for spectrum in spectra_of(self._batch()):
            with pytest.raises(ValueError):
                spectrum.matrix[..., 0] = 1
            assert not spectrum.matrix.flags.writeable

    def test_one_solve_per_order_and_stack(self, monkeypatch):
        monkeypatch.setattr(spectral, "_STACK_LIMIT", 4)
        calls = []
        solve = np.linalg.eigvalsh

        def counting(a):
            calls.append(a.shape)
            return solve(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        spectra_of([cycle(2, 3)] * 9 + [edgeless(5)] * 4 + [complete_uniform(4, 3)])
        assert sorted(calls) == [(2, 4, 4), (4, 4, 4), (4, 4, 4), (4, 5, 5)]


class TestJacobi:
    def test_values_match_lapack(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            m = _random_symmetric(rng, int(rng.integers(2, 21)))
            values, _ = jacobi_eigh(m)
            reference = np.sort(np.linalg.eigvalsh(m))[::-1]
            assert np.max(np.abs(values - reference)) < 1e-10 * max(1, np.linalg.norm(m))

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            m = _random_symmetric(rng, int(rng.integers(2, 21)))
            values, vectors = jacobi_eigh(m)
            residual = np.linalg.norm(m - vectors @ np.diag(values) @ vectors.T)
            assert residual <= 1e-10 * max(1.0, np.linalg.norm(m))

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        m = _random_symmetric(rng, 15)
        v1, q1 = jacobi_eigh(m)
        v2, q2 = jacobi_eigh(m.copy())
        assert np.array_equal(v1, v2)
        assert np.array_equal(q1, q2)

    def test_zero_matrix(self):
        values, _ = jacobi_eigh(np.zeros((5, 5)))
        assert values.tolist() == [0.0] * 5

    def test_trivial_orders(self):
        assert jacobi_eigh(np.array([[3.0]]))[0].tolist() == [3.0]
        assert jacobi_eigh(np.zeros((0, 0)))[0].tolist() == []

    def test_sweep_cap_raises(self):
        m = _random_symmetric(np.random.default_rng(1), 12)
        with pytest.raises(ConvergenceError):
            jacobi_eigh(m, max_sweeps=1)


class TestKnownSpectra:
    def test_single_edge(self):
        values = spectrum_of(Hypergraph(3, [(0, 1, 2)])).eigenvalues
        assert np.allclose(values, [2, -1, -1], atol=1e-12)

    def test_two_ring_analytic(self):
        spectrum = spectrum_of(cycle(2, 3))
        expected = [GOLDEN, 0.0, 1 - math.sqrt(5), -2.0]
        assert np.allclose(spectrum.eigenvalues, expected, atol=1e-9)

    def test_two_ring_charpoly(self):
        # exact characteristic polynomial x^4 - 8x^2 - 8x, checked by an
        # independent rational recurrence, certifies the analytic roots
        coeffs = charpoly(adjacency(cycle(2, 3)).tolist())
        assert [float(c) for c in coeffs] == [1.0, 0.0, -8.0, -8.0, 0.0]
        for root in (GOLDEN, 0.0, 1 - math.sqrt(5), -2.0):
            assert abs(charpoly_eval(coeffs, root)) < 1e-9

    def test_zero_matrix_spectrum(self):
        spectrum = spectrum_of(edgeless(5))
        assert spectrum.eigenvalues.tolist() == [0.0] * 5


class TestSpectrumStatistics:
    def test_moment_zero_is_order(self, fixtures):
        for name, h, _ in fixtures:
            assert spectral_moment(spectrum_of(h), 0) == h.n, name

    def test_moment_one_is_trace(self, fixtures):
        for name, h, _ in fixtures:
            spectrum = spectrum_of(h)
            assert abs(spectral_moment(spectrum, 1)) <= 1e-8 * max(
                1.0, spectrum.frobenius_norm
            ), name

    def test_two_ring_moment2(self):
        assert spectral_moment(spectrum_of(cycle(2, 3)), 2) == pytest.approx(16.0, abs=1e-8)

    def test_moments_match_exact_traces(self, small_fixtures):
        for name, h, _ in small_fixtures:
            spectrum = spectrum_of(h)
            a = adjacency(h)
            for t in range(9):
                exact = trace_power(a, t)
                assert spectral_moment(spectrum, t) == exact, (name, t)
                approx = float(np.sum(spectrum.eigenvalues**t))
                assert abs(approx - exact) <= 1e-8 * max(1.0, abs(exact)), (name, t)

    def test_float_matrix_moments_from_eigenvalues(self):
        spectrum = eigendecompose(np.diag([1.5, -0.5]))
        assert spectral_moment(spectrum, 2) == pytest.approx(2.5)
        assert summarize(spectrum, 3).moments == pytest.approx((2, 1, 2.5, 3.25))

    def test_estrada_examples(self):
        assert estrada_index(spectrum_of(edgeless(5))) == pytest.approx(5.0, abs=1e-12)
        single = estrada_index(spectrum_of(Hypergraph(3, [(0, 1, 2)])))
        assert single == pytest.approx(math.exp(2) + 2 * math.exp(-1), abs=1e-10)
        k43 = estrada_index(spectrum_of(complete_uniform(4, 3)))
        assert k43 == pytest.approx(math.exp(6) + 3 * math.exp(-2), abs=1e-9)

    def test_estrada_matches_series_oracle(self, small_fixtures):
        for name, h, _ in small_fixtures:
            via_eigenvalues = estrada_index(spectrum_of(h))
            via_series = estrada_series(h)
            assert via_eigenvalues == pytest.approx(via_series, rel=1e-10), name

    def test_estrada_overflow_guard(self):
        spectrum = eigendecompose(np.diag([800.0, 0.0]))
        with pytest.raises(OverflowError):
            estrada_index(spectrum)

    def test_energy_examples(self):
        assert energy(spectrum_of(edgeless(4))) == 0.0
        assert energy(spectrum_of(Hypergraph(3, [(0, 1, 2)]))) == pytest.approx(4.0, abs=1e-10)
        assert energy(spectrum_of(cycle(2, 3))) == pytest.approx(2 * GOLDEN, abs=1e-10)

    def test_negative_count_examples(self):
        assert negative_count(spectrum_of(edgeless(4))) == 0
        assert negative_count(spectrum_of(Hypergraph(3, [(0, 1, 2)]))) == 2
        # the exact zero eigenvalue classifies as zero, not negative
        spectrum = spectrum_of(cycle(2, 3))
        assert negative_count(spectrum) == 2
        assert positive_count(spectrum) == 1

    def test_sign_counts_partition(self, fixtures):
        for name, h, _ in fixtures:
            spectrum = spectrum_of(h)
            zeros = h.n - negative_count(spectrum) - positive_count(spectrum)
            assert zeros >= 0, name
            assert sum(1 for v in spectrum.eigenvalues if abs(v) <= spectrum.zero_tolerance) == zeros

    def test_distinct_eigenvalues(self):
        assert distinct_eigenvalues(spectrum_of(edgeless(6))) == [(0.0, 6)]
        clusters = distinct_eigenvalues(spectrum_of(complete_uniform(4, 3)))
        assert len(clusters) == 2
        assert clusters[0][0] == pytest.approx(6.0, abs=1e-10)
        assert clusters[0][1] == 1
        assert clusters[1][0] == pytest.approx(-2.0, abs=1e-10)
        assert clusters[1][1] == 3
        assert len(distinct_eigenvalues(spectrum_of(cycle(2, 3)))) == 4

    def test_multiplicities_sum(self, fixtures):
        for name, h, _ in fixtures:
            clusters = distinct_eigenvalues(spectrum_of(h))
            assert sum(mult for _, mult in clusters) == h.n, name

    def test_perron_frobenius_on_connected(self, fixtures):
        for name, h, _ in fixtures:
            if h.m == 0:
                continue
            spectrum = spectrum_of(h)
            clusters = distinct_eigenvalues(spectrum)
            assert clusters[0][1] == 1, name
            assert spectrum.lambda1 >= abs(float(spectrum.eigenvalues[-1])) - 1e-9, name

    def test_summary_consistency(self):
        spectrum = spectrum_of(cycle(2, 3))
        s = summarize(spectrum)
        assert s.lambda1 == pytest.approx(GOLDEN, abs=1e-10)
        assert s.negative_count == 2
        assert s.distinct_count == 4
        assert len(s.moments) == 9
        assert s.estrada == pytest.approx(sum(math.exp(v) for v in spectrum.eigenvalues))


class TestWalks:
    def test_edgeless_no_walks(self):
        h = edgeless(4)
        for s in range(1, 4):
            assert walk_count(h, 0, 1, s) == 0
            assert walk_count(h, 2, 2, s) == 0

    def test_single_edge_closed_pairs(self):
        assert walk_count(Hypergraph(3, [(0, 1, 2)]), 0, 0, 2) == 2

    def test_two_ring_multiplicity(self):
        assert walk_count(cycle(2, 3), 0, 1, 1) == 2

    def test_length_zero(self):
        h = Hypergraph(3, [(0, 1, 2)])
        assert walk_count(h, 1, 1, 0) == 1
        assert walk_count(h, 0, 1, 0) == 0

    def test_matches_dfs_oracle(self, small_fixtures):
        for name, h, _ in small_fixtures:
            for s in range(5):
                for u in range(h.n):
                    for v in range(u, h.n):
                        expected = dfs_walk_count(h, u, v, s)
                        assert walk_count(h, u, v, s) == expected, (name, u, v, s)
                        assert walk_count(h, v, u, s) == expected, (name, u, v, s)

    def test_closed_walk_counts_match_powers(self):
        h = unicyclic_cm(3, [1, 0])
        counts = closed_walk_counts(h, 0, 6)
        assert counts == [walk_count(h, 0, 0, s) for s in range(1, 7)]

    def test_counts_are_exact_big_integers(self):
        h = complete_uniform(6, 3)
        value = walk_count(h, 0, 0, 40)
        assert value > 10**50
        assert isinstance(value, int)

    def test_exact_across_int64_limit(self):
        # entries pass 2**63 at s = 15; the reference is a plain
        # sequence of products over Python integers
        h = complete_uniform(6, 3)
        reference = adjacency(h).astype(object)
        power = np.identity(6, dtype=object)
        table = closed_walk_table(h, 24)
        for s in range(1, 25):
            power = power @ reference
            assert walk_count(h, 0, 1, s) == power[0, 1], s
            assert trace_power(adjacency(h), s) == np.trace(power), s
            assert [row[s - 1] for row in table] == list(power.diagonal()), s

    def test_short_tables_match_plain_products(self, small_fixtures):
        # s_max 1, 2 and 3 read every diagonal from A alone or from A and
        # A^2; the reference is a plain sequence of object products
        for name, h, _ in small_fixtures:
            a = adjacency(h).astype(object)
            power, reference = np.identity(h.n, dtype=object), []
            for s in range(1, 4):
                power = power @ a
                reference.append(list(power.diagonal()))
            spectrum = spectrum_of(h)
            for s_max in (1, 2, 3):
                expected = [list(row) for row in zip(*reference[:s_max])]
                assert closed_walk_table(h, s_max) == expected, (name, s_max)
                walks = summarize(spectrum, s_max, s_max).closed_walks
                assert [list(row) for row in walks] == expected, (name, s_max)
                moments = summarize(spectrum, s_max).moments
                assert moments == (h.n, *map(sum, reference[:s_max])), (name, s_max)

    def test_orders_zero_and_one(self):
        for n in (0, 1):
            s = summarize(spectrum_of(edgeless(n)), 8, 3)
            assert s.moments == (n, 0, 0, 0, 0, 0, 0, 0, 0), n
            assert s.closed_walks == ((0, 0, 0),) * n, n
            assert closed_walk_table(edgeless(n), 3) == [[0, 0, 0]] * n, n

    def test_single_powers_take_logarithmic_products(self):
        # A is a 2x2 swap, so A^s stays 0/1; ten million sequential object
        # products take over ten seconds, binary exponentiation takes ~50
        s = 10**7 + 1
        start = time.perf_counter()
        assert walk_count(Hypergraph(2, [(0, 1)]), 0, 1, s) == 1
        assert trace_power(np.array([[0, 1], [1, 0]]), s - 1) == 2
        assert time.perf_counter() - start < 1.0

    def test_summary_walks_share_the_moment_pass(self, small_fixtures):
        for name, h, _ in small_fixtures:
            spectrum = spectrum_of(h)
            for walk_max in (3, 12):
                s = summarize(spectrum, 8, walk_max)
                table = closed_walk_table(h, walk_max)
                assert [list(row) for row in s.closed_walks] == table, (name, walk_max)
                assert s.moments == tuple(trace_power(adjacency(h), t) for t in range(9)), name
            assert summarize(spectrum).closed_walks == (), name
        with pytest.raises(ValueError):
            summarize(spectrum_of(cycle(2, 3)), 8, -1)
        with pytest.raises(ValueError):
            summarize(eigendecompose(np.diag([1.5, -0.5])), 2, 2)

    def test_closed_walk_table_matches_dfs_oracle(self, small_fixtures):
        for name, h, _ in small_fixtures:
            table = closed_walk_table(h, 5)
            assert len(table) == h.n, name
            for u, row in enumerate(table):
                assert row == [dfs_walk_count(h, u, u, s) for s in range(1, 6)], (name, u)


class TestWalkDominance:
    def test_same_vertex_equal(self):
        h = cycle(2, 3)
        assert walk_dominance(h, 1, 1, 6) == "equal"

    def test_symmetric_vertices_equal(self):
        assert walk_dominance(cycle(2, 3), 2, 3, 8) == "equal"

    def test_pendant_below_its_ring_vertex(self):
        h = unicyclic_cm(3, [1, 0])
        pendant_vertex = 4  # on the pendant edge (0, 4, 5) at ring vertex 0
        assert walk_dominance(h, pendant_vertex, 0, 8) == "strict"
        assert walk_dominance(h, 0, pendant_vertex, 8) == "weak"

    def test_classification_matches_definition(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(3, 7)
            m = rng.randint(1, 6)
            k = rng.randint(2, 3)
            h = random_uniform(n, k, min(m, math.comb(n, k)), rng)
            for _ in range(4):
                u, v = rng.randrange(n), rng.randrange(n)
                left = [dfs_walk_count(h, u, u, s) for s in range(1, 5)]
                right = [dfs_walk_count(h, v, v, s) for s in range(1, 5)]
                below = any(a < b for a, b in zip(left, right))
                above = any(a > b for a, b in zip(left, right))
                expected = (
                    "incomparable"
                    if below and above
                    else "strict" if below else "weak" if above else "equal"
                )
                assert walk_dominance(h, u, v, 4) == expected


class TestMonotonicity:
    def test_estrada_increases_with_any_edge(self):
        h = cycle(2, 3)
        base = estrada_index(spectrum_of(h))
        from itertools import combinations

        for size in range(2, h.n + 1):
            for candidate in combinations(range(h.n), size):
                if candidate in h.edges:
                    continue
                grown = add_edge(h, candidate)
                assert estrada_index(spectrum_of(grown)) > base


class TestExports:
    def test_format_float_examples(self):
        assert format_float(403.8348376701) == "403.834837670"
        assert format_float(1 + math.sqrt(5)) == "3.23606797750"
        assert format_float(-2.0) == "-2"
        assert format_float(0.0) == "0"

    def test_format_float_ignores_last_bit_noise(self):
        assert format_float(np.nextafter(-2.0, 0)) == "-2"
        assert format_float(1524.0000000000002) == "1524"
        assert format_float(0.5 + 1e-15) == "0.500000000000"

    def test_csv_shape(self):
        text = spectrum_to_csv(spectrum_of(cycle(2, 3)))
        lines = text.strip().split("\n")
        assert lines[0] == "eigenvalue"
        assert lines[1] == "3.23606797750"
        assert lines[-1] == "-2"

    def test_summary_dict_keys(self):
        payload = summary_to_dict(spectrum_of(cycle(2, 3)))
        assert payload["n"] == 4
        assert payload["negative_count"] == 2
        assert payload["moments"][2] == pytest.approx(16.0)
        assert len(payload["eigenvalues"]) == 4
