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
from itertools import combinations

import numpy as np

from .hypercore import Hypergraph

#: exp overflows double precision just above this exponent
_EXP_OVERFLOW = 709.0

#: most matrices ``spectra_of`` builds and solves in one stack
_STACK_LIMIT = 64

#: walk_dominance outcomes
STRICT = "strict"
WEAK = "weak"
EQUAL = "equal"
INCOMPARABLE = "incomparable"


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted descending, the matrix they came from, and the
    classification tolerance.

    ``matrix`` is the read-only source matrix; when it is an integer
    matrix, spectral moments are its exact power traces.
    ``zero_tolerance`` separates numerically-zero eigenvalues from signed
    ones; it scales with the Frobenius norm of the source matrix.
    """

    eigenvalues: np.ndarray
    matrix: np.ndarray
    zero_tolerance: float
    frobenius_norm: float

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[0]) if self.n else 0.0


@dataclass(frozen=True)
class SpectralSummary:
    """The headline spectrum statistics in one bundle; moments are exact
    integers for an integer source matrix.  ``closed_walks[u]`` holds the
    closed walk counts at vertex u for lengths 1, 2, ... when requested."""

    lambda1: float
    estrada: float
    energy: float
    negative_count: int
    distinct_count: int
    moments: tuple[int | float, ...]
    closed_walks: tuple[tuple[int, ...], ...] = ()


def _adjacency_stack(hs: list[Hypergraph], n: int) -> np.ndarray:
    """Adjacency matrices of hypergraphs on n vertices each, as one
    read-only (len(hs), n, n) int64 stack.

    Edge e of hypergraph b counts its pairs at offset b*n^2, so each
    position pair takes one bincount over every edge of the batch, and
    memory stays O(len(hs)*n^2 + m*k) however many edges there are.
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
        # e[x] holds every edge's x-th vertex; rows[x] is the row part of
        # the pair key, shifted to the edge's own matrix
        e = np.array(list(zip(*group)), dtype=np.int64)
        rows = e[:-1] * n + base
        # edges are increasing tuples, so x < y lands above the diagonal
        for x, y in combinations(range(size), 2):
            counts += np.bincount(rows[x] + e[y], minlength=counts.size)
    upper = counts.reshape(len(hs), n, n)
    stack = upper + upper.transpose(0, 2, 1)
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
    a = a.astype(np.int64 if a.dtype.kind in "iub" else float, copy=False)
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


def _spectra(stack: np.ndarray) -> list[Spectrum]:
    """Spectra of a read-only (B, n, n) stack of exactly symmetric
    matrices from one eigvalsh call, eigenvalues descending.

    LAPACK solves each matrix of the stack on its own, so every spectrum
    is bitwise the one a one-matrix call gives.  The Frobenius norms are
    row-wise dot products, the same sums ``np.linalg.norm`` takes.
    """
    f = stack.astype(float)
    values = np.linalg.eigvalsh(f)[:, ::-1].copy()
    b, n, _ = f.shape
    flat = f.reshape(b, n * n)
    fros = np.sqrt(flat[:, None, :] @ flat[:, :, None]).ravel().tolist()
    return [Spectrum(v, a, 1e-9 * max(1.0, fro), fro) for v, a, fro in zip(values, stack, fros)]


def eigendecompose(matrix) -> Spectrum:
    """Spectrum of a real symmetric matrix, eigenvalues descending."""
    return _spectra(as_symmetric(matrix)[None])[0]


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
            if not (stack == stack.transpose(0, 2, 1)).all():
                raise ValueError("matrix is not exactly symmetric")
            for i, spectrum in zip(chunk, _spectra(stack)):
                out[i] = spectrum
    return out


def _moments(
    spectrum: Spectrum, t_max: int, walk_max: int = 0
) -> tuple[list[int | float], list[list[int]]]:
    """Moments 0..t_max, and each vertex's closed walk counts for lengths
    1..walk_max.  For an integer source matrix both come from one exact
    power pass; otherwise moments are sums of eigenvalue powers."""
    if walk_max < 0:
        raise ValueError(f"s_max must be >= 1, got {walk_max}")
    if spectrum.matrix.dtype.kind != "i":
        if walk_max:
            raise ValueError("closed walk counts need an integer matrix")
        return [float(np.sum(spectrum.eigenvalues**t)) for t in range(t_max + 1)], []
    diagonals = _walk_diagonals(spectrum.matrix, max(t_max, walk_max))
    moments = [spectrum.n] + [sum(d) for d in diagonals[:t_max]]
    return moments, _by_vertex(diagonals[:walk_max])


def spectral_moment(spectrum: Spectrum, t: int) -> int | float:
    """t-th spectral moment: the sum of eigenvalues raised to the t-th
    power, which is tr(M^t).  Exact (a Python int) when the source matrix
    is an integer matrix."""
    if t < 0:
        raise ValueError(f"moment order must be >= 0, got {t}")
    return _moments(spectrum, t)[0][t]


def estrada_index(spectrum: Spectrum) -> float:
    """Sum of exp(eigenvalue) over the spectrum.

    Raises OverflowError instead of returning infinity once the leading
    eigenvalue exceeds what double precision can exponentiate (~709).
    """
    if spectrum.n and spectrum.lambda1 > _EXP_OVERFLOW:
        raise OverflowError(
            f"estrada index overflows double precision (lambda1={spectrum.lambda1:g})"
        )
    return float(sum(math.exp(v) for v in spectrum.eigenvalues))


def energy(spectrum: Spectrum) -> float:
    """Sum of absolute eigenvalues."""
    return float(np.sum(np.abs(spectrum.eigenvalues)))


def negative_count(spectrum: Spectrum) -> int:
    """Number of eigenvalues below -zero_tolerance."""
    return int(np.sum(spectrum.eigenvalues < -spectrum.zero_tolerance))


def positive_count(spectrum: Spectrum) -> int:
    """Number of eigenvalues above +zero_tolerance."""
    return int(np.sum(spectrum.eigenvalues > spectrum.zero_tolerance))


def distinct_eigenvalues(spectrum: Spectrum) -> list[tuple[float, int]]:
    """Cluster the sorted eigenvalues with the zero-tolerance gap.

    Returns (value, multiplicity) pairs, descending, where each value is
    the mean of its cluster; multiplicities sum to n.
    """
    out: list[tuple[float, int]] = []
    values = spectrum.eigenvalues
    i = 0
    while i < len(values):
        j = i + 1
        while j < len(values) and values[j - 1] - values[j] <= spectrum.zero_tolerance:
            j += 1
        out.append((float(np.mean(values[i:j])), j - i))
        i = j
    return out


def summarize(spectrum: Spectrum, max_moment: int = 8, walk_max: int = 0) -> SpectralSummary:
    """Headline statistics plus moments 0..max_moment and, for a positive
    walk_max, closed walk counts at every vertex for lengths 1..walk_max."""
    moments, walks = _moments(spectrum, max_moment, walk_max)
    return SpectralSummary(
        lambda1=spectrum.lambda1,
        estrada=estrada_index(spectrum),
        energy=energy(spectrum),
        negative_count=negative_count(spectrum),
        distinct_count=len(distinct_eigenvalues(spectrum)),
        moments=tuple(moments),
        closed_walks=tuple(map(tuple, walks)),
    )


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


def _by_vertex(diagonals: list[list[int]]) -> list[list[int]]:
    return [list(row) for row in zip(*diagonals)]


def trace_power(matrix, t: int) -> int:
    """Exact trace of the t-th power of an integer matrix (O(log t)
    products by binary exponentiation)."""
    if t < 0:
        raise ValueError(f"power must be >= 0, got {t}")
    return int(sum(np.linalg.matrix_power(_exact(matrix), t).diagonal().tolist()))


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
    return _by_vertex(_walk_diagonals(adjacency(h), s_max))


def closed_walk_counts(h: Hypergraph, u: int, s_max: int) -> list[int]:
    """Closed walk counts at u for every length 1..s_max (exact)."""
    return closed_walk_table(h, s_max)[u]


def walk_dominance(h: Hypergraph, u: int, v: int, s_max: int) -> str:
    """Compare closed walk counts at u against those at v for lengths <= s_max.

    Returns ``"equal"`` when the counts agree at every length,
    ``"strict"`` when u's counts never exceed v's and fall short at least
    once, ``"incomparable"`` when each side exceeds the other somewhere,
    and ``"weak"`` when the counts only dominate in the reverse direction
    (v's never exceed u's).  A finite certificate: ``strict`` at one
    s_max cannot be revoked by larger s_max, while ``equal`` may refine.
    """
    table = closed_walk_table(h, s_max)
    u_below = any(a < b for a, b in zip(table[u], table[v]))
    u_above = any(a > b for a, b in zip(table[u], table[v]))
    if u_below and u_above:
        return INCOMPARABLE
    if u_below:
        return STRICT
    if u_above:
        return WEAK
    return EQUAL


# --- report rendering -------------------------------------------------------


def format_float(x: float) -> str:
    """Render with 12 significant digits, locale independent.

    The integer test runs on the value rounded to those 12 digits, so a
    float one ulp off an integer prints as that integer.
    """
    rounded = float(f"{x:.12g}")
    if rounded.is_integer() and abs(rounded) < 1e15:
        return np.format_float_positional(
            rounded, precision=12, unique=False, fractional=False, trim="-"
        )
    return np.format_float_positional(x, precision=12, unique=False, fractional=False)


def _snapped_eigenvalues(spectrum: Spectrum) -> list[float]:
    """Eigenvalues with solver-noise zeros reported as exact zeros."""
    return [
        0.0 if abs(v) <= spectrum.zero_tolerance else float(v)
        for v in spectrum.eigenvalues
    ]


def spectrum_to_csv(spectrum: Spectrum) -> str:
    """CSV with a single ``eigenvalue`` column, descending."""
    lines = ["eigenvalue"]
    lines += [format_float(v) for v in _snapped_eigenvalues(spectrum)]
    return "\n".join(lines) + "\n"


def summary_to_dict(spectrum: Spectrum, max_moment: int = 8, walk_max: int = 0) -> dict:
    """JSON-ready summary object (lambda1, estrada, energy, counts, moments,
    and a ``closed_walks`` table keyed by vertex for a positive walk_max);
    exact integer moments stay integers."""
    s = summarize(spectrum, max_moment, walk_max)

    def rounded(x: float) -> float:
        return float(f"{x:.12g}")

    out = {
        "n": spectrum.n,
        "lambda1": rounded(s.lambda1),
        "estrada": rounded(s.estrada),
        "energy": rounded(s.energy),
        "negative_count": s.negative_count,
        "distinct_count": s.distinct_count,
        "moments": [mt if isinstance(mt, int) else rounded(mt) for mt in s.moments],
        "eigenvalues": [rounded(v) for v in _snapped_eigenvalues(spectrum)],
    }
    if walk_max:
        out["closed_walks"] = {str(u): list(c) for u, c in enumerate(s.closed_walks)}
    return out
