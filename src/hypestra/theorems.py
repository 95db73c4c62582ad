"""Checkers for the library's catalog of spectral bounds and orderings.

Every bound checker evaluates both sides of one inequality on a concrete
instance and returns a BoundReport carrying the values, the signed slack
and the holds/equality flags.  The verification suites sweep whole
parameter families and aggregate ordering or ranking reports.  See the
README for the catalog of bound identifiers and their statements.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from . import families as fam
from .hypercore import (
    Hypergraph,
    HypergraphError,
    VACUOUS,
    add_edge,
    diameter,
    extend_edge,
    shrink,
    uniformity,
)
from .spectral import (
    Spectrum,
    _compare,
    _estrada,
    adjacency,
    as_symmetric,
    distinct_eigenvalues,
    eigendecompose,
    energy,
    estrada_index,
    negative_count,
    spectra_of,
    spectrum_of,
)

#: denominator variants for the sum-of-largest-eigenvalues bounds
AS_WRITTEN = "as-written"
THETA_PLUS_ONE = "theta-plus-one"
VARIANTS = (AS_WRITTEN, THETA_PLUS_ONE)


class CharacterizationMismatchError(RuntimeError):
    """The two-eigenvalue / balanced-design / flat-matrix equivalences
    disagreed.  On connected input this indicates an implementation bug;
    disconnected input can genuinely break the equivalence (two disjoint
    complete edges share one spectrum shape with none of the design
    structure), which this error surfaces rather than hides."""


@dataclass
class BoundReport:
    """Outcome of one bound check.

    ``slack`` is signed so that nonnegative means the bound holds with
    room: rhs - lhs for upper bounds (lhs <= rhs), lhs - rhs for lower
    bounds.  ``holds``/``equality`` mean ``spectral._compare`` finds it
    nonnegative/zero: the two sides, or a cancellation-free slack and 0.
    ``inputs`` records n, m, k, t where applicable and ``extra`` carries
    per-bound metadata (variants, tau forms, notes).
    """

    bound_id: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    equality: bool
    inputs: dict
    extra: dict = field(default_factory=dict)


def _report(
    bound_id: str,
    lhs: float,
    rhs: float,
    claim: str,
    inputs: dict,
    extra: dict | None = None,
    slack: int | float | None = None,
) -> BoundReport:
    """claim is "le" (lhs <= rhs) or "ge".  A slack passed in is computed
    without cancellation, and decides holds/equality alone; ``_compare``
    of an int slack with 0 is exact."""
    big, small = (rhs, lhs) if claim == "le" else (lhs, rhs)
    if slack is None:
        slack, sign = big - small, _compare(big, small)
    else:
        sign = _compare(slack, 0.0)
    extra = {"claim": claim, **extra} if extra else {"claim": claim}
    return BoundReport(
        bound_id, float(lhs), float(rhs), float(slack), sign >= 0, sign == 0, inputs, extra
    )


def _resolve_k(h: Hypergraph, k: int | None) -> int | None:
    """Uniformity of h, reconciled with an explicitly requested k.

    Returns None only for edgeless input without an explicit k; callers
    whose formulas need k in that case must reject None themselves.
    """
    u = uniformity(h)
    if u is None:
        raise HypergraphError("operation requires a uniform hypergraph")
    if u is VACUOUS:
        return k
    if k is not None and k != u:
        raise HypergraphError(f"hypergraph is {u}-uniform, not {k}-uniform")
    return u


def _top_sum(eigenvalues, t: int, trace: float = 0) -> float:
    """The sum of the t largest of the descending eigenvalues, whose sum is
    ``trace``: for t > n/2 the trace less the n - t smallest, so t = n gives it exactly."""
    if 2 * t <= len(eigenvalues):
        return float(eigenvalues[:t].sum())
    return trace - float(eigenvalues[t:].sum())


def _sum_largest(bound_id, lhs, theta, t, variant, rhs_of, inputs, extra) -> BoundReport:
    """lhs, the sum of the t largest eigenvalues, against rhs_of(theta, core)
    for both variants of core(theta, t), with theta the spectrum's
    negative count and core = (theta + sqrt(theta*(t*theta + t - 1))) / den."""
    top = theta + math.sqrt(theta * (t * theta + t - 1))
    as_written = rhs_of(theta, top / (2 * theta + 1))
    plus_one = rhs_of(theta, top / (2 * (theta + 1)))
    extra = {
        "variant": variant,
        "theta": theta,
        **extra,
        "rhs_as_written": as_written,
        "rhs_theta_plus_one": plus_one,
        "tighter_variant": THETA_PLUS_ONE if _compare(as_written, plus_one) > 0 else "tie",
    }
    rhs = {AS_WRITTEN: as_written, THETA_PLUS_ONE: plus_one}[variant]
    return _report(bound_id, lhs, rhs, "le", inputs, extra)


class _fact:
    """A fact of ``_Facts``, computed when first read and a plain attribute
    from then on: ``functools.cached_property`` without the lock it takes
    on every first read before Python 3.12."""

    def __init__(self, compute):
        self.compute = compute

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, facts, owner):
        if facts is None:
            return self
        value = facts.__dict__[self.name] = self.compute(facts)
        return value


class _Facts:
    """The facts of one hypergraph h that its bounds read, and the bounds.

    n and m are read off h.  Every other fact is computed once, when a
    bound first reads it, so an error (non-uniform input, an Estrada sum
    past double precision) raises at the first bound that needs the fact,
    in the order the bounds run.  A spectrum solved beforehand is set like
    a plain attribute, and is then not solved again.
    """

    def __init__(self, h: Hypergraph, k: int | None, spectrum: Spectrum | None = None):
        self.h, self.n, self.m, self.requested_k = h, h.n, h.m, k
        if spectrum is not None:
            self.spectrum = spectrum

    k = _fact(lambda f: _resolve_k(f.h, f.requested_k))
    spectrum = _fact(lambda f: spectrum_of(f.h))
    matrix = _fact(lambda f: f.spectrum.matrix)
    theta = _fact(lambda f: negative_count(f.spectrum))
    ee = _fact(lambda f: _estrada(f.spectrum.eigenvalues))
    #: entry_counts[v] entries of A equal v, from 0 to A's largest entry
    entry_counts = _fact(lambda f: np.bincount(f.matrix.ravel()).tolist())
    #: tr A^2, the sum of the squared entries of the symmetric A, in ints
    moment2 = _fact(lambda f: sum([v * v * c for v, c in enumerate(f.entry_counts)]))
    #: (k-1)m(m(k-2)+2), the upper bound on the second moment
    moment2_upper = _fact(lambda f: 0 if f.m == 0 else (f.k - 1) * f.m * (f.m * (f.k - 2) + 2))
    root = _fact(lambda f: math.sqrt(f.moment2_upper))
    #: the eigenvalues of the k-uniform complement, descending
    complement = _fact(lambda f: eigendecompose(_complement_adjacency(f.matrix, f.k)).eigenvalues)
    ee_complement = _fact(lambda f: _estrada(f.complement))

    @property
    def inputs(self) -> dict:
        return {"n": self.n, "m": self.m, "k": self.k, "t": None}

    # --- the bounds, one per public checker ---

    def sum_largest(self, t: int, variant: str) -> BoundReport:
        n = self.n
        if not 2 <= t <= n:
            raise HypergraphError(f"need 2 <= t <= n, got t={t}, n={n}")
        inputs = {"n": n, "m": self.m, "k": self.k, "t": t}
        # with no negative eigenvalue the bound is 0, and k may be unknown
        return _sum_largest(
            "cor3.2-sum-largest",
            _top_sum(self.spectrum.eigenvalues, t),
            self.theta,
            t,
            variant,
            lambda theta, core: 0.0 if theta == 0 else n * math.comb(n - 2, self.k - 2) * core,
            inputs,
            {},
        )

    def moment2_bounds(self) -> tuple[BoundReport, BoundReport]:
        m2 = self.moment2
        lower = 0 if self.m == 0 else self.k * (self.k - 1) * self.m
        upper = self.moment2_upper
        return (
            _report("thm2.12-moment-lower", lower, m2, "le", self.inputs, slack=m2 - lower),
            _report("thm2.12-moment-upper", m2, upper, "le", self.inputs, slack=upper - m2),
        )

    def ee_lower_spectral(self) -> BoundReport:
        lhs = self.ee
        lam1 = self.spectrum.lambda1
        rhs = math.exp(lam1) + (self.n - 1) - lam1
        # tr A = 0 makes lhs - rhs the sum over i >= 2 of exp(l_i) - 1 - l_i:
        # no term of size exp(l1) cancels, and no term is below 0
        slack = math.fsum(math.expm1(x) - x for x in self.spectrum.eigenvalues[1:].tolist())
        inputs = {"n": self.n, "m": self.m, "k": None, "t": None}
        return _report("ee-lower-spectral", lhs, rhs, "ge", inputs, slack=slack)

    def ee_lower_edges(self) -> BoundReport:
        inputs = self.inputs
        edge_term = 0.0 if self.m == 0 else 4 * self.k * (self.k - 1) * self.m / 2
        rhs = math.sqrt(self.n**2 + edge_term)
        return _report("thm4.1-ee-lower", self.ee, rhs, "ge", inputs)

    def ee_upper_edges(self) -> BoundReport:
        inputs = self.inputs
        return _report("thm4.2-ee-upper", self.ee, self.n - 1 + math.exp(self.root), "le", inputs)

    def ee_upper_energy(self) -> tuple[BoundReport, BoundReport]:
        inputs = self.inputs
        lhs = self.ee
        e_total = energy(self.spectrum)
        refined = self.n + e_total - 1 - self.root + math.exp(self.root)
        coarse = self.n - 1 + math.exp(e_total)
        return (
            _report("thm4.3-ee-upper-energy", lhs, refined, "le", inputs, {"energy": e_total}),
            _report("rem4.4-ee-upper-energy", lhs, coarse, "le", self.inputs, {"energy": e_total}),
        )

    def nordhaus_gaddum(self) -> BoundReport:
        if self.k is None:
            raise HypergraphError("complement of an edgeless hypergraph needs an explicit k")
        ee, ee_bar = self.ee, self.ee_complement
        rhs = 2 * math.exp((self.n - 1) / 2) + 2 * (self.n - 1) * math.exp(-0.5)
        extra = {"ee": ee, "ee_complement": ee_bar}
        return _report("thm4.5-nordhaus-gaddum", ee + ee_bar, rhs, "ge", self.inputs, extra)


def check_sum_t_largest_matrix(
    matrix,
    t: int,
    variant: str = AS_WRITTEN,
    spectrum: Spectrum | None = None,
) -> BoundReport:
    """Sum of the t largest eigenvalues of a symmetric matrix against the
    entry-range bound n*(core(theta,t)*(b-a) + max(0,a)).  The matrix is
    checked to be square, finite and exactly symmetric, also when a
    spectrum is passed in.

    ``variant`` selects the denominator in core: ``as-written`` uses
    2*theta + 1, ``theta-plus-one`` the slightly stronger 2*(theta + 1).
    The report's extra block carries both right-hand sides, which one is
    tighter, and the per-n (tau) forms of both sides.
    """
    matrix = as_symmetric(matrix)
    if not 2 <= t <= len(matrix):
        raise HypergraphError(f"need 2 <= t <= n, got t={t}, n={len(matrix)}")
    if spectrum is None:
        spectrum = eigendecompose(matrix)
    # an exact int trace, or the correctly rounded sum of a float diagonal
    lhs = _top_sum(spectrum.eigenvalues, t, math.fsum(matrix.diagonal().tolist()))
    a, b = float(matrix.min()), float(matrix.max())
    return _entry_range(len(matrix), a, b, lhs, negative_count(spectrum), t, variant)


def _entry_range(n, a, b, lhs, theta, t, variant) -> BoundReport:
    """thm3.1 at a checked t: lhs and theta of an n x n matrix with entries in [a, b]."""
    report = _sum_largest(
        "thm3.1-sum-largest",
        lhs,
        theta,
        t,
        variant,
        lambda _, core: n * (core * (b - a) + max(0.0, a)),
        {"n": n, "m": None, "k": None, "t": t},
        {"entry_min": a, "entry_max": b},
    )
    report.extra.update(tau_lhs=report.lhs / n, tau_rhs=report.rhs / n)
    return report


def check_sum_t_largest_hypergraph(
    h: Hypergraph,
    t: int,
    k: int | None = None,
    variant: str = AS_WRITTEN,
    spectrum: Spectrum | None = None,
) -> BoundReport:
    """Sum of the t largest adjacency eigenvalues of a uniform hypergraph
    against n*C(n-2, k-2)*core(theta, t)."""
    return _Facts(h, k, spectrum).sum_largest(t, variant)


def check_moment2_bounds(
    h: Hypergraph,
    k: int | None = None,
    spectrum: Spectrum | None = None,
) -> tuple[BoundReport, BoundReport]:
    """Second spectral moment, the exact trace of A^2, squeezed between
    k(k-1)m and (k-1)m(m(k-2)+2); one report per side so equality flags
    stay independent."""
    return _Facts(h, k, spectrum).moment2_bounds()


def check_ee_lower_spectral(
    h: Hypergraph, spectrum: Spectrum | None = None
) -> BoundReport:
    """Estrada index against exp(lambda1) + (n-1) - lambda1 from below."""
    return _Facts(h, None, spectrum).ee_lower_spectral()


def check_ee_lower_edges(
    h: Hypergraph,
    k: int | None = None,
    spectrum: Spectrum | None = None,
) -> BoundReport:
    """Estrada index against sqrt(n^2 + 4k(k-1)m/2) from below; equality
    exactly on edgeless input."""
    return _Facts(h, k, spectrum).ee_lower_edges()


def check_ee_upper_edges(
    h: Hypergraph,
    k: int | None = None,
    spectrum: Spectrum | None = None,
) -> BoundReport:
    """Estrada index against n - 1 + exp(sqrt((k-1)m(m(k-2)+2))) from
    above; equality exactly on edgeless input."""
    return _Facts(h, k, spectrum).ee_upper_edges()


def check_ee_upper_energy(
    h: Hypergraph,
    k: int | None = None,
    spectrum: Spectrum | None = None,
) -> tuple[BoundReport, BoundReport]:
    """Two energy-based Estrada upper bounds: the refined
    n + E - 1 - root + exp(root) with root = sqrt((k-1)m(m(k-2)+2)), and
    the coarse n - 1 + exp(E)."""
    return _Facts(h, k, spectrum).ee_upper_energy()


def _complement_adjacency(a: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    """Adjacency of the k-uniform complement, into ``out`` if given, from
    the adjacency a of a k-uniform hypergraph, without listing its edges.

    Every vertex pair lies in C(n-2, k-2) k-subsets, so the complement's
    pair counts are C(n-2, k-2)*(J - I) - a.
    """
    n = a.shape[0]
    if not 2 <= k <= n:
        raise HypergraphError(f"need 2 <= k <= n for complement, got k={k}, n={n}")
    # a pair count past int64 raises here instead of wrapping
    out = np.subtract(np.int64(math.comb(n - 2, k - 2)), a, out=out)
    out.flat[:: n + 1] = 0
    return out


def check_nordhaus_gaddum(
    h: Hypergraph,
    k: int | None = None,
    spectrum: Spectrum | None = None,
) -> BoundReport:
    """Estrada index of h plus that of its k-uniform complement against
    2*exp((n-1)/2) + 2(n-1)*exp(-1/2) from below."""
    return _Facts(h, k, spectrum).nordhaus_gaddum()


def classify_two_eigenvalue(
    h: Hypergraph, k: int | None = None
) -> tuple[int, fam.BIBDCertificate | None] | None:
    """Pair-coverage constant beta if h has exactly two distinct adjacency
    eigenvalues; None otherwise.

    When it fires, cross-checks three equivalent descriptions: the
    adjacency matrix equals beta*(J - I), the eigenvalues are beta*(n-1)
    once and -beta with multiplicity n-1, and (for n > k, where block
    designs are defined) the design validator returns a certificate whose
    replication count matches every degree.  Any disagreement raises
    CharacterizationMismatchError.
    """
    k = _resolve_k(h, k)
    spectrum = spectrum_of(h)
    clusters = distinct_eigenvalues(spectrum)
    n = h.n
    off = spectrum.matrix[~np.eye(n, dtype=bool)]
    flat = off.size and off.min() == off.max() >= 1
    flat_beta = int(off[0]) if flat else None
    cert = fam.bibd_validate(h) if (k is not None and n > k) else None
    if len(clusters) != 2:
        if flat_beta is not None:
            raise CharacterizationMismatchError(
                f"flat adjacency with beta={flat_beta} but {len(clusters)} distinct eigenvalues"
            )
        if cert is not None:
            raise CharacterizationMismatchError(
                f"design certificate {cert} but {len(clusters)} distinct eigenvalues"
            )
        return None
    if flat_beta is None:
        raise CharacterizationMismatchError(
            "two distinct eigenvalues but the adjacency matrix is not beta*(J - I); "
            "the equivalence assumes a connected hypergraph"
        )
    beta = flat_beta
    fro = spectrum.frobenius_norm
    (v1, m1), (v2, m2) = clusters
    if not (
        m1 == 1
        and m2 == n - 1
        and _compare(v1, beta * (n - 1), fro) == 0
        and _compare(v2, -beta, fro) == 0
    ):
        raise CharacterizationMismatchError(
            f"eigenvalues {clusters} do not match beta={beta} expectations"
        )
    if k is not None and n > k:
        if cert is None:
            raise CharacterizationMismatchError(
                f"flat adjacency with beta={beta} but no design certificate"
            )
        if cert.beta != beta:
            raise CharacterizationMismatchError(
                f"certificate beta {cert.beta} != adjacency beta {beta}"
            )
    return beta, cert


# --- aggregated bound run ---------------------------------------------------


def _first_missing_edge(h: Hypergraph, k: int) -> tuple[int, ...] | None:
    subsets = combinations(range(h.n), k)  # in the lexicographic order of h.edges
    return next((s for e, s in zip(h.edges, subsets) if e != s), None) or next(subsets, None)


def check_all_bounds(
    h: Hypergraph,
    k: int | None = None,
    t: int = 2,
    variant: str = AS_WRITTEN,
) -> list[BoundReport]:
    """Run the full bound catalog on one hypergraph.

    Emits, in bound_id order: the matrix- and hypergraph-level
    sum-of-largest checks at the given t, both second-moment sides, the
    spectral and edge-count Estrada lower bounds, the three Estrada upper
    bounds, the complement-sum bound, and (when a k-subset is missing) an
    edge-addition monotonicity probe.

    The adjacency A of h is built once.  The complement's matrix
    C(n-2,k-2)(J - I) - A and the probe's, A plus one on each pair of the
    first missing k-subset, are written next to it into one stack, which
    is solved in one call.  Each spectrum is bitwise the one a lone solve
    gives, and every bound reads the one fact set of h.
    """
    f = _Facts(h, k)
    a = f.matrix = adjacency(h)
    stack, size = a[None].repeat(3, axis=0), 1
    # a complement that cannot be built is left for the complement-sum
    # bound to raise at its usual place, which comes before the probe is needed
    if f.k is not None:
        with suppress(HypergraphError, OverflowError):
            _complement_adjacency(a, f.k, out=stack[1])
            size = 2
    probe = _first_missing_edge(h, f.k) if size > 1 else None
    if probe is not None:
        grown = stack[2]
        for x, y in combinations(probe, 2):
            grown[x, y] = grown[y, x] = grown[x, y] + 1
        size = 3
    # one eigvalsh call stands in for the facts' own solves, as in _solve; ||A||_F^2 = tr A^2
    values = np.linalg.eigvalsh(stack[:size])[:, ::-1].copy()
    f.spectrum = Spectrum(values[0], a, math.sqrt(f.moment2))
    if size > 1:
        f.complement = values[1]
    # cor3.2 checks t first; thm3.1 reads A unchecked: from 0 on its diagonal to its largest
    cor = f.sum_largest(t, variant)
    reports = [
        cor,
        _entry_range(f.n, 0.0, float(len(f.entry_counts) - 1), cor.lhs, f.theta, t, variant),
        *f.moment2_bounds(),
        f.ee_lower_spectral(),
        f.ee_lower_edges(),
        f.ee_upper_edges(),
        *f.ee_upper_energy(),
        f.nordhaus_gaddum(),
    ]
    if probe is not None:
        ee_grown = _estrada(values[2])
        extra = {"added_edge": list(probe)}
        reports.append(_report("ee-monotonicity", f.ee, ee_grown, "le", f.inputs, extra))
    return sorted(reports, key=lambda r: r.bound_id)


# --- ordering suites ---------------------------------------------------------


@dataclass(frozen=True)
class OrderingInstance:
    """One ordering ee_left < ee_right; ``strict_holds`` when ``spectral._compare``
    puts ee_right above ee_left, beyond its relative bound."""

    left: str
    right: str
    ee_left: float
    ee_right: float
    strict_holds: bool

    @property
    def gap(self) -> float:
        return self.ee_right - self.ee_left


@dataclass(frozen=True)
class OrderingReport:
    """Strict Estrada orderings for one transformation family."""

    lemma_id: str
    instances: tuple[OrderingInstance, ...]

    @property
    def all_strict(self) -> bool:
        return all(inst.strict_holds for inst in self.instances)


#: the two sides of an ordering instance: left label and hypergraph, then
#: right label and hypergraph
_Sides = tuple[str, Hypergraph, str, Hypergraph]


def _pair(left: str, right: str) -> _Sides:
    """Both sides of an ordering instance, built from their labels."""
    return left, fam.build_family(left), right, fam.build_family(right)


def ring_reduction(h: Hypergraph, m: int, k: int) -> Hypergraph:
    """Shrink ring vertex 0 out of the last ring edge, then re-attach the
    shortened edge at ring vertex 2.  Turns a ring of m >= 4 edges, in the
    ``families`` vertex layout, into a ring of m - 2 edges with a
    two-edge tail."""
    if m < 4:
        raise HypergraphError(f"ring reduction needs m >= 4, got {m}")
    # the last ring edge less ring vertex 0: ring vertex m-1 and its fillers
    stub = (m - 1, *range(m * (k - 1) - (k - 2), m * (k - 1)))
    shrunk = shrink(h, 0, h.edge_index((0, *stub)))
    return extend_edge(shrunk, shrunk.edge_index(stub), 2)


def _lemma26_sides(k: int, size_budget: int) -> list[_Sides]:
    out = []
    q = size_budget // (k - 1)  # a ring of m edges and s pendants fits if m + s <= q
    for m in range(4, q + 1):
        for s in range(q - m + 1):
            for comp in fam.compositions(s, m):
                if comp[2] != max(comp):
                    continue
                h = fam.unicyclic_cm(k, list(comp))
                label = fam.cm_label(k, comp)
                out.append((label, h, label + "->reduced", ring_reduction(h, m, k)))
    return out


def _lemma27_sides(k: int, size_budget: int) -> list[_Sides]:
    out = []
    for s in range(3, size_budget // (k - 1) - 3 + 1):
        for n1 in range(1, s - 1):
            for n2 in range(1, s - n1 + 1):
                n3 = s - n1 - n2
                if not n1 >= n2 >= n3 >= 1:
                    continue
                middle = fam.cm_label(k, (n1 + n2, n3, 0))
                out.append(_pair(fam.cm_label(k, (n1, n2, n3)), middle))
                out.append(_pair(middle, fam.cm_label(k, (n1 + n2 + n3, 0, 0))))
    return out


def _lemma42_sides(k: int, size_budget: int) -> list[_Sides]:
    out = []
    for s in range(2, size_budget // (k - 1) - 2 + 1):
        for n2 in range(1, s // 2 + 1):
            n1 = s - n2
            out.append(_pair(fam.cm_label(k, (n1, n2)), fam.cm_label(k, (n1 + 1, n2 - 1))))
    return out


def _lemma43_sides(k: int, size_budget: int) -> list[_Sides]:
    return [
        _pair(fam.cm_label(k, (q - 3, 0, 0)), fam.cm_label(k, (q - 3, 1)))
        for q in range(4, size_budget // (k - 1) + 1)
    ]


def _monotonicity_sides(k: int, size_budget: int) -> list[_Sides]:
    labels = [f"edgeless:{k + 1}", f"star:{k},2"]
    if k >= 3:
        labels += [f"cycle:2,{k}", f"gss:{k}"]
    out = []
    for label in labels:
        h = fam.build_family(label)
        if h.n > size_budget:
            continue
        present = set(h.edges)
        sizes = range(2, h.n + 1) if h.n <= 6 else (k,)
        for size in sizes:
            for cand in combinations(range(h.n), size):
                if cand in present:
                    continue
                grown = add_edge(h, cand)
                out.append((label, h, f"{label}+{','.join(map(str, cand))}", grown))
    return out


def verify_ordering_lemmas(k: int, size_budget: int) -> list[OrderingReport]:
    """Strict Estrada-index orderings over every parameterization that
    fits in ``size_budget`` total vertices; a budget that fits no
    instance (any below k + 1) raises ``HypergraphError``.

    Covers: pendant shifting toward one ring vertex on two-edge rings,
    pendant consolidation on three-edge rings, the three-edge-ring to
    two-edge-ring step, the ring reduction for rings of length >= 4, the
    three-ring versus filler-pendant comparison at order 3(k-1), and
    edge-addition monotonicity probes.
    """
    if k < 3:
        raise HypergraphError(f"ordering suites need k >= 3, got {k}")
    gss = [_pair(f"cycle:3,{k}", f"gss:{k}")] if 3 * (k - 1) <= size_budget else []
    lemmas = [
        ("lemma2.6-ring-reduction", _lemma26_sides(k, size_budget)),
        ("lemma2.7-pendant-consolidation", _lemma27_sides(k, size_budget)),
        ("lemma4.2-pendant-shift", _lemma42_sides(k, size_budget)),
        ("lemma4.3-ring3-to-ring2", _lemma43_sides(k, size_budget)),
        ("remark4.11-ring3-vs-gss", gss),
        ("ee-monotonicity", _monotonicity_sides(k, size_budget)),
    ]
    if not any(sides for _, sides in lemmas):
        raise HypergraphError(f"no ordering instance fits a size budget of {size_budget} at k={k}")
    # many sides recur across instances (a base shape with each added
    # edge, a middle shape on both sides of a chain): solve each distinct
    # hypergraph once, all of them in one stacked call
    distinct = dict.fromkeys(
        h for _, sides in lemmas for _, hl, _, hr in sides for h in (hl, hr)
    )
    ee = dict(zip(distinct, map(estrada_index, spectra_of(distinct))))
    reports = []
    for lemma_id, sides in lemmas:
        instances = []
        for left, hl, right, hr in sides:
            el, er = ee[hl], ee[hr]
            instances.append(OrderingInstance(left, right, el, er, _compare(er, el) > 0))
        reports.append(OrderingReport(lemma_id, tuple(instances)))
    return reports


# --- extremal ranking --------------------------------------------------------


@dataclass(frozen=True)
class ExtremalReport:
    """Estrada ranking over the unicyclic catalog for one (n_over, k).

    ``ranking`` lists (label, ee) sorted by descending Estrada index;
    ``max_labels``/``second_labels`` are the catalog entries attaining
    the top two distinct values.  The catalog is a structured subset of
    all unicyclic hypergraphs of this order (see ``scope_note``), so the
    ranking verifies extremality over that subset.
    """

    n_over: int
    k: int
    n: int
    ranking: tuple[tuple[str, float], ...]
    max_labels: tuple[str, ...]
    second_labels: tuple[str, ...]
    expected_max_label: str
    expected_second_label: str
    max_is_expected: bool
    second_is_expected: bool
    max_unique: bool
    diameter_max: int
    diameter_second: int
    diameters_expected: bool
    passed: bool
    scope_note: str


_SCOPE_NOTE = (
    "catalog covers pendant edges on ring vertices and ring fillers plus "
    "depth-2 pendant chains; it is a structured subset of all unicyclic "
    "hypergraphs of this order, so extremality is verified over that subset"
)


def verify_extremal(n_over: int, k: int) -> ExtremalReport:
    """Rank the unicyclic catalog by Estrada index and compare the top two
    distinct values against the expected extremal shapes.

    The expected maximum is the two-edge ring with all pendants on one
    ring vertex; the expected runner-up keeps one pendant on the second
    ring vertex (n_over >= 4) or hangs the extra edge on a ring filler
    vertex (n_over = 3).  Diameters of the two leaders are checked to be
    2 and 3 for n_over >= 4.
    """
    if n_over < 3:
        raise HypergraphError(f"extremal ranking needs n_over >= 3, got {n_over}")
    if k < 3:
        raise HypergraphError(f"extremal ranking needs k >= 3, got {k}")
    catalog = fam.unicyclic_catalog(n_over, k)
    spectra = spectra_of(entry.hypergraph for entry in catalog)
    by_value = sorted(
        ((entry.label, estrada_index(spectrum)) for entry, spectrum in zip(catalog, spectra)),
        key=lambda item: -item[1],
    )
    # values equal under _compare (isomorphic entries differ in the last
    # bits) share their group's leading value and rank by label, so neither
    # the order nor the reported values depend on solver noise
    groups: list[list[tuple[str, float]]] = []
    for label, ee in by_value:
        if groups and _compare(groups[-1][0][1], ee) == 0:
            groups[-1].append((label, groups[-1][0][1]))
        else:
            groups.append([(label, ee)])
    groups = [sorted(group) for group in groups]
    expected_max_label = fam.cm_label(k, (n_over - 2, 0))
    if n_over >= 4:
        expected_second_label = fam.cm_label(k, (n_over - 3, 1))
    else:
        # G**: the extra edge hangs on the filler vertex 2 of ring edge 0
        expected_second_label = fam.cm_label(k, (0, 0, 1) + (0,) * (2 * (k - 1) - 3), 2)
    if len(groups) < 2:
        raise HypergraphError(f"catalog for n_over={n_over}, k={k} has a single Estrada value")
    max_labels = tuple(label for label, _ in groups[0])
    second_labels = tuple(label for label, _ in groups[1])
    max_is_expected = expected_max_label in max_labels
    second_is_expected = expected_second_label in second_labels
    max_unique = len(groups) > 1
    shapes = dict(catalog)
    diameter_max = diameter(shapes[max_labels[0]])
    diameter_second = diameter(shapes[second_labels[0]])
    diameters_expected = n_over < 4 or (diameter_max, diameter_second) == (2, 3)
    return ExtremalReport(
        n_over=n_over,
        k=k,
        n=(k - 1) * n_over,
        ranking=tuple(item for group in groups for item in group),
        max_labels=max_labels,
        second_labels=second_labels,
        expected_max_label=expected_max_label,
        expected_second_label=expected_second_label,
        max_is_expected=max_is_expected,
        second_is_expected=second_is_expected,
        max_unique=max_unique,
        diameter_max=diameter_max,
        diameter_second=diameter_second,
        diameters_expected=diameters_expected,
        passed=bool(
            max_is_expected and second_is_expected and max_unique and diameters_expected
        ),
        scope_note=_SCOPE_NOTE,
    )
