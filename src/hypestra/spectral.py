"""Adjacency matrices, eigenvalues and spectrum-derived statistics.

The adjacency matrix is built once, as a read-only int64 array.  Its
float view goes to LAPACK's symmetric eigenvalue driver
(``numpy.linalg.eigvalsh``).  Its integer entries feed the exact paths:
walk counts and spectral moments are entries and traces of its powers,
taken over Python's unbounded integers, so counts are exact at any size.

Many hypergraphs of one order are built as one (B, n, n) stack and solved
in one call (``spectra_of``); a single matrix is the stack of one, so both
paths share one adjacency builder and one solver, and give bitwise equal
spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .hypercore import Hypergraph

#: exp overflows double precision just above this exponent
_EXP_OVERFLOW = 709.0

#: most matrices ``spectra_of`` builds and solves in one stack
_STACK_LIMIT = 64

#: relative error bound of every float decision, see ``_compare``
_RTOL = 1e-9


def _compare(a: float, b: float, scale: float = 0.0) -> int:
    """-1, 0 or 1 as a is below, equal to or above b, where a and b count
    as equal when they are at most _RTOL * max(1, |a|, |b|, scale) apart.

    Every float verdict of the library is decided here: eigenvalue signs
    and clusters, bound holds/equality, strict orderings and ranking ties.
    """
    d = a - b
    if abs(d) <= _RTOL * max(1.0, abs(a), abs(b), scale):
        return 0
    return 1 if d > 0 else -1


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending, the matrix they came from, and its
    Frobenius norm.

    ``matrix`` is the read-only source matrix; when it is an integer
    matrix, spectral moments are its exact power traces.
    """

    eigenvalues: np.ndarray
    matrix: np.ndarray
    frobenius_norm: float

    @property
    def zero_tolerance(self) -> float:
        """``_compare``'s bound for any two eigenvalues at scale
        ``frobenius_norm``: no eigenvalue exceeds the norm in absolute
        value, so eigenvalues this close are equal, and this close to 0
        are zero."""
        return _RTOL * max(1.0, self.frobenius_norm)

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[0]) if self.n else 0.0


def _adjacency_stack(hs: list[Hypergraph], n: int) -> np.ndarray:
    """Adjacency matrices of hypergraphs on n vertices each, as one
    read-only (len(hs), n, n) int64 stack.

    Edge e of hypergraph b counts its vertex pairs at offset b*n^2, so
    each edge size takes one bincount over every pair of the batch, and
    memory stays O(len(hs)*n^2 + m*k^2) however many edges there are.
    """
    edges = [e for h in hs for e in h.edges]
    # where each edge's matrix starts in counts; a lone matrix starts at 0,
    # and zeros cost far less than arange/repeat on small inputs
    offsets = (
        (np.arange(len(hs), dtype=np.int64) * (n * n)).repeat([h.m for h in hs])
        if len(hs) > 1
        else np.zeros(len(edges), dtype=np.int64)
    )
    counts = np.zeros(len(hs) * n * n, dtype=np.int64)
    sizes = set(map(len, edges))
    for size in sizes:
        group, base = edges, offsets
        if len(sizes) > 1:
            picked = [i for i, edge in enumerate(edges) if len(edge) == size]
            group, base = [edges[i] for i in picked], offsets[picked]
        # e[i, x, 0] is edge i's x-th vertex, so keys[i, x, y] is where the
        # pair (x, y) of edge i lands in its own matrix
        e = np.fromiter(chain.from_iterable(group), np.int64).reshape(-1, size, 1)
        keys = e * n + base[:, None, None] + e.transpose(0, 2, 1)
        counts += np.bincount(keys.ravel(), minlength=counts.size)
    # each vertex paired with itself counted its degree on the diagonal
    counts.reshape(len(hs), n * n)[:, :: n + 1] = 0
    stack = counts.reshape(len(hs), n, n)
    stack.flags.writeable = False
    return stack


def adjacency(h: Hypergraph) -> np.ndarray:
    """Pair-multiplicity adjacency matrix as a read-only int64 array:
    entry (i, j) counts the edges containing both i and j; the diagonal
    is zero."""
    return _adjacency_stack([h], h.n)[0]


def as_symmetric(matrix) -> np.ndarray:
    """Validate a square, finite, exactly symmetric real matrix and return
    it as a read-only array: int64 for integer input, float otherwise.
    Complex input is refused, not cast (a cast would drop the imaginary
    part).

    The symmetric eigenvalue driver reads one triangle only and would
    return wrong values for an asymmetric matrix without raising, so every
    public function that takes an arbitrary matrix checks it here.
    """
    a = np.asarray(matrix)
    if a.dtype.kind == "c":
        raise ValueError("matrix entries must be real, got complex input")
    # unsigned entries past int64 would wrap, so they take the float path
    wraps = a.dtype.kind == "u" and a.size and a.max() > np.iinfo(np.int64).max
    a = a.astype(np.int64 if a.dtype.kind in "iub" and not wraps else float, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.dtype.kind == "f" and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if not (a == a.T).all():
        raise ValueError("matrix is not exactly symmetric")
    if a.flags.writeable:
        a = a.copy()
        a.flags.writeable = False
    return a


def _solve(stack: np.ndarray) -> list[Spectrum]:
    """Spectra of a (B, n, n) stack of exactly symmetric matrices of one
    order from one eigvalsh call, eigenvalues descending; the stack is
    made read-only, as each spectrum keeps its matrix.

    LAPACK solves each matrix of the stack on its own, so every spectrum
    is bitwise the one a one-matrix call gives.  The Frobenius norms are
    row-wise dot products, the same sums ``np.linalg.norm`` takes.
    """
    stack.flags.writeable = False
    f = stack.astype(float)
    values = np.linalg.eigvalsh(f)[:, ::-1].copy()
    b, n, _ = f.shape
    flat = f.reshape(b, n * n)
    fros = np.sqrt(flat[:, None, :] @ flat[:, :, None]).ravel().tolist()
    return [Spectrum(v, a, fro) for v, a, fro in zip(values, stack, fros)]


def eigendecompose(matrix) -> Spectrum:
    """Spectrum of a real symmetric matrix, eigenvalues descending."""
    return _solve(as_symmetric(matrix)[None])[0]


def spectrum_of(h: Hypergraph) -> Spectrum:
    """Adjacency spectrum of a hypergraph."""
    return eigendecompose(adjacency(h))


def spectra_of(hypergraphs) -> list[Spectrum]:
    """Adjacency spectra of many hypergraphs, in input order, each bitwise
    equal to ``spectrum_of`` of it.

    Hypergraphs of one order are built and solved together, in stacks of
    at most ``_STACK_LIMIT`` matrices, so a stack holds O(_STACK_LIMIT*n^2)
    entries.
    """
    hs = list(hypergraphs)
    by_order: dict[int, list[int]] = {}
    for i, h in enumerate(hs):
        by_order.setdefault(h.n, []).append(i)
    out: list[Spectrum] = [None] * len(hs)
    for n, positions in by_order.items():
        for start in range(0, len(positions), _STACK_LIMIT):
            chunk = positions[start : start + _STACK_LIMIT]
            stack = _adjacency_stack([hs[i] for i in chunk], n)
            for i, spectrum in zip(chunk, _solve(stack)):
                out[i] = spectrum
    return out


def spectral_moment(spectrum: Spectrum, t: int) -> int | float:
    """t-th spectral moment: the sum of eigenvalues raised to the t-th
    power, which is tr(M^t).  Exact (a Python int, from ``trace_power``)
    when the source matrix is an integer matrix."""
    if t < 0:
        raise ValueError(f"moment order must be >= 0, got {t}")
    if spectrum.matrix.dtype.kind == "i":
        return trace_power(spectrum.matrix, t)
    return float(np.sum(spectrum.eigenvalues**t))


def estrada_index(spectrum: Spectrum) -> float:
    """Sum of exp(eigenvalue) over the spectrum.

    Raises OverflowError instead of returning infinity whenever the sum
    exceeds double precision: once the leading eigenvalue is past what
    exp can take (~709), or when several large terms add up past it.
    """
    return _estrada(spectrum.eigenvalues)


def _estrada(eigenvalues: np.ndarray) -> float:
    """``estrada_index`` of descending eigenvalues."""
    values = eigenvalues.tolist()
    total = math.inf if values and values[0] > _EXP_OVERFLOW else float(sum(map(math.exp, values)))
    if not math.isfinite(total):
        raise OverflowError(f"estrada index overflows double precision (lambda1={values[0]:g})")
    return total


def energy(spectrum: Spectrum) -> float:
    """Sum of absolute eigenvalues."""
    return float(np.abs(spectrum.eigenvalues).sum())


def negative_count(spectrum: Spectrum) -> int:
    """Number of eigenvalues that ``_compare`` puts below zero."""
    return int(np.count_nonzero(spectrum.eigenvalues < -spectrum.zero_tolerance))


def distinct_eigenvalues(spectrum: Spectrum) -> list[tuple[float, int]]:
    """Cluster the sorted eigenvalues, splitting where two neighbours are
    unequal under ``_compare``.

    Returns (value, multiplicity) pairs, descending, where each value is
    the mean of its cluster; multiplicities sum to n.
    """
    values = spectrum.eigenvalues
    if not len(values):
        return []
    cuts = np.flatnonzero(values[:-1] - values[1:] > spectrum.zero_tolerance) + 1
    return [(float(np.mean(c)), len(c)) for c in np.split(values, cuts)]


# --- exact integer walk machinery ------------------------------------------


def _exact(matrix) -> np.ndarray:
    """Object-dtype copy of an integer matrix: its entries are Python
    integers, so products of any size are exact."""
    return np.asarray(matrix).astype(object)


def _walk_diagonals(matrix, s_max: int) -> list[list[int]]:
    """Diagonals of M^1, ..., M^s_max of a symmetric integer matrix from
    the exact powers up to ceil(s_max / 2).

    Powers of a symmetric matrix are symmetric, so the diagonal of M^s is
    the row-wise dot product of M^floor(s/2) with M^ceil(s/2).
    """
    powers = [_exact(matrix)]
    while 2 * len(powers) < s_max:
        powers.append(powers[-1] @ powers[0])
    diagonals = [powers[0].diagonal().tolist()] if s_max else []
    for s in range(2, s_max + 1):
        half = powers[s // 2 - 1] * powers[(s + 1) // 2 - 1]
        diagonals.append(half.sum(axis=1).tolist())
    return diagonals


def trace_power(matrix, t: int) -> int:
    """Exact trace of the t-th power of an integer matrix (O(log t)
    products by binary exponentiation)."""
    if t < 0:
        raise ValueError(f"power must be >= 0, got {t}")
    a = np.asarray(matrix)
    if a.dtype.kind in "fc":
        raise ValueError(f"trace_power needs an integer matrix, got dtype {a.dtype}")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return int(sum(np.linalg.matrix_power(_exact(a), t).diagonal().tolist()))


def walk_count(h: Hypergraph, u: int, v: int, s: int) -> int:
    """Number of length-s walks from u to v, counted with edge multiplicity.

    Consecutive walk vertices are distinct, and each step may use any
    edge containing both endpoints, so the count is the (u, v) entry of
    the s-th power of the adjacency matrix.  Arithmetic is exact, and
    the power takes O(log s) products by binary exponentiation.
    """
    if s < 0:
        raise ValueError(f"walk length must be >= 0, got {s}")
    for x in (u, v):
        if not 0 <= x < h.n:
            raise ValueError(f"vertex {x} outside 0..{h.n - 1}")
    return int(np.linalg.matrix_power(_exact(adjacency(h)), s)[u, v])


def closed_walk_table(h: Hypergraph, s_max: int) -> list[list[int]]:
    """Closed walk counts at every vertex for every length 1..s_max, from
    one exact power pass: row u holds the counts at vertex u."""
    if s_max < 1:
        raise ValueError(f"s_max must be >= 1, got {s_max}")
    return [list(row) for row in zip(*_walk_diagonals(adjacency(h), s_max))]
