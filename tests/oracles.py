"""Independent reference implementations used to pin expected values.

These deliberately avoid the library's eigensolver path: eigenvalues come
from a cyclic Jacobi iteration, walks are enumerated one edge choice at a
time, the Estrada index is summed from exact integer closed-walk traces,
and characteristic polynomials come from the Faddeev-LeVerrier recurrence
over exact rationals.  ``bound_facts`` reads the spectral facts of a bound
report straight from numpy's solver, on matrices built here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from hypestra import Hypergraph


class ConvergenceError(RuntimeError):
    """Jacobi sweep cap reached before the off-diagonal mass vanished."""


def jacobi_eigh(
    matrix,
    *,
    tol_factor: float = 1e-14,
    max_sweeps: int = 100,
) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Returns ``(values, vectors)`` with values sorted descending and
    ``matrix == vectors @ diag(values) @ vectors.T`` up to solver
    precision.  Sweeps rotate every (p, q) plane in a fixed order, so the
    result is bit-reproducible for identical input.  Convergence is
    declared when the off-diagonal Frobenius norm drops below
    ``tol_factor * max(1, ||matrix||_F)``; a ConvergenceError after
    ``max_sweeps`` sweeps indicates pathological input.  Jacobi is the
    reference here because it is more accurate than QR-based solvers
    (Demmel & Veselic, SIAM J. Matrix Anal. Appl. 13(4), 1992).
    """
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    q = np.eye(n)
    if n < 2:
        return a.diagonal().copy(), q
    threshold = tol_factor * max(1.0, float(np.linalg.norm(a)))
    for _ in range(max_sweeps):
        off_entries = a.copy()
        np.fill_diagonal(off_entries, 0.0)
        if float(np.linalg.norm(off_entries)) <= threshold:
            break
        for p in range(n - 1):
            for r in range(p + 1, n):
                apq = a[p, r]
                if apq == 0.0:
                    continue
                app = a[p, p]
                aqq = a[r, r]
                diff = aqq - app
                if abs(diff) + 100.0 * abs(apq) == abs(diff):
                    # rotation angle below roundoff of the diagonal gap
                    t = apq / diff
                else:
                    tau = diff / (2.0 * apq)
                    if tau >= 0.0:
                        t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                    else:
                        t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # two-sided rotation in the (p, r) plane
                col_p = a[:, p].copy()
                col_r = a[:, r].copy()
                a[:, p] = c * col_p - s * col_r
                a[:, r] = s * col_p + c * col_r
                row_p = a[p, :].copy()
                row_r = a[r, :].copy()
                a[p, :] = c * row_p - s * row_r
                a[r, :] = s * row_p + c * row_r
                tapq = t * apq
                a[p, p] = app - tapq
                a[r, r] = aqq + tapq
                a[p, r] = 0.0
                a[r, p] = 0.0
                q_p = q[:, p].copy()
                q_r = q[:, r].copy()
                q[:, p] = c * q_p - s * q_r
                q[:, r] = s * q_p + c * q_r
    else:
        raise ConvergenceError(f"no convergence after {max_sweeps} sweeps")
    values = a.diagonal().copy()
    order = np.argsort(-values, kind="stable")
    return values[order], q[:, order]


def dfs_walk_count(h: Hypergraph, u: int, v: int, s: int) -> int:
    """Count length-s walks u -> v by enumerating every (vertex, edge)
    sequence with distinct consecutive vertices."""
    if s == 0:
        return 1 if u == v else 0
    incident = [[e for e in h.edges if x in e] for x in range(h.n)]

    def extend(x: int, remaining: int) -> int:
        if remaining == 0:
            return 1 if x == v else 0
        total = 0
        for e in incident[x]:
            for y in e:
                if y != x:
                    total += extend(y, remaining - 1)
        return total

    return extend(u, s)


def estrada_series(h: Hypergraph, max_terms: int = 400) -> float:
    """Estrada index as the factorial-weighted sum of exact closed-walk
    traces; terms are added until they stop moving the double-precision
    total."""
    n = h.n
    a = [[0] * n for _ in range(n)]
    for e in h.edges:
        for i in range(len(e)):
            for j in range(i + 1, len(e)):
                a[e[i]][e[j]] += 1
                a[e[j]][e[i]] += 1
    total = float(n)  # t = 0 term
    power = [row[:] for row in a]
    stale = 0
    for t in range(1, max_terms):
        if t > 1:
            power = [
                [sum(prow[x] * a[x][col] for x in range(n)) for col in range(n)]
                for prow in power
            ]
        term = sum(power[i][i] for i in range(n)) / math.factorial(t)
        previous = total
        total += term
        stale = stale + 1 if total == previous else 0
        if stale >= 3:
            break
    else:
        raise RuntimeError("estrada series did not settle")
    return total


def charpoly(int_matrix) -> list[Fraction]:
    """Exact characteristic polynomial coefficients, leading first, via
    the Faddeev-LeVerrier recurrence."""
    n = len(int_matrix)
    a = [[Fraction(x) for x in row] for row in int_matrix]
    coeffs = [Fraction(1)]
    m = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for step in range(1, n + 1):
        am = [
            [sum(a[i][x] * m[x][j] for x in range(n)) for j in range(n)]
            for i in range(n)
        ]
        c = -sum(am[i][i] for i in range(n)) / step
        coeffs.append(c)
        m = [
            [am[i][j] + (c if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
    return coeffs


def charpoly_eval(coeffs: list[Fraction], x: float) -> float:
    value = 0.0
    for c in coeffs:
        value = value * x + float(c)
    return value


def catalog_shape(label: str) -> Hypergraph:
    """Unicyclic catalog entry rebuilt edge by edge from its label.

    ``cm:k:n0,...,n(m-1)`` puts n_i pendant edges on ring vertex i;
    ``cmx:k:m:c0,c1,...`` puts c_v pendant edges on vertex v, counting
    the m ring vertices first and then the ring fillers; a trailing
    ``+deep@i`` hangs one more pendant edge on the first new vertex of
    the first pendant edge at ring vertex i.  Vertices are numbered in
    the order they are made: ring vertices, the fillers of each ring
    edge in turn, then each pendant edge's k - 1 new vertices.
    """
    base, _, deep = label.partition("+deep@")
    head, k_text, *rest = base.split(":")
    k = int(k_text)
    counts = [int(c) for c in rest[-1].split(",")]
    m = int(rest[0]) if head == "cmx" else len(counts)
    made = m

    def fresh(count: int) -> list[int]:
        nonlocal made
        made += count
        return list(range(made - count, made))

    edges = [[i, (i + 1) % m] + fresh(k - 2) for i in range(m)]
    first_pendant = {}
    for v, count in enumerate(counts):
        for _ in range(count):
            edges.append([v] + fresh(k - 1))
            first_pendant.setdefault(v, edges[-1])
    if deep:
        i = int(deep)
        hub = first_pendant[i][1]
        edges.append([hub] + fresh(k - 1))
    return Hypergraph(made, edges)


def assert_canonical(h: Hypergraph) -> None:
    """h has sorted, strictly increasing edges and equals the hypergraph
    the validating constructor builds from its edges scrambled."""
    assert list(h.edges) == sorted(h.edges)
    assert all(a < b for e in h.edges for a, b in zip(e, e[1:]))
    assert h == Hypergraph(h.n, [list(e) for e in reversed(h.edges)])


def _float_adjacency(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n))
    for e in edges:
        for x in e:
            for y in e:
                if x != y:
                    a[x, y] += 1.0
    return a


def _exp_sum(values) -> float:
    total = 0.0
    for x in values.tolist():
        total += math.exp(x)
    return total


def bound_facts(h: Hypergraph, k: int, t: int) -> dict:
    """The spectral facts a bound report of the k-uniform h reads, from
    ``np.linalg.eigvalsh`` of float adjacency matrices built here pair by
    pair, eigenvalues descending.

    ``sum_largest`` (of the t largest; for t > n/2 the trace less the
    n - t smallest, so 0.0 at t = n) and ``energy`` are numpy sums,
    ``theta`` counts the eigenvalues below -1e-9 * max(1, ||A||_F), and
    each Estrada index is a left-to-right sum of ``math.exp``: of A
    (``ee``), of the k-uniform complement (``ee_complement``) and of A with
    the first missing k-subset added (``ee_probe``, None if none is missing).
    """
    a = _float_adjacency(h.n, h.edges)
    values = np.linalg.eigvalsh(a)[::-1]
    present = set(h.edges)
    missing = [e for e in combinations(range(h.n), k) if e not in present]
    cut = -1e-9 * max(1.0, float(np.linalg.norm(a)))
    grown = _float_adjacency(h.n, [*h.edges, missing[0]]) if missing else None
    return {
        "sum_largest": (
            float(values[:t].sum()) if 2 * t <= h.n else float(a.trace()) - float(values[t:].sum())
        ),
        "energy": float(np.abs(values).sum()),
        "theta": int((values < cut).sum()),
        "ee": _exp_sum(values),
        "ee_complement": _exp_sum(np.linalg.eigvalsh(_float_adjacency(h.n, missing))[::-1]),
        "ee_probe": None if grown is None else _exp_sum(np.linalg.eigvalsh(grown)[::-1]),
    }
