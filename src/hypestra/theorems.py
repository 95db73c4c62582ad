"""Checkers for the library's catalog of spectral bounds and orderings.

Every bound checker evaluates both sides of one inequality on a concrete
instance and returns a BoundReport carrying the values, the signed slack
and the holds/equality flags.  The verification suites sweep whole
parameter families and aggregate ordering or ranking reports.  See the
README for the catalog of bound identifiers and their statements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import families as fam
from .hypercore import (
    Hypergraph,
    HypergraphError,
    VACUOUS,
    add_edge,
    degrees,
    diameter,
    extend_edge,
    shrink,
    uniformity,
)
from .spectral import (
    Spectrum,
    as_symmetric,
    distinct_eigenvalues,
    eigendecompose,
    energy,
    estrada_index,
    negative_count,
    spectral_moment,
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


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one bound check.

    ``slack`` is signed so that nonnegative means the bound holds with
    room: rhs - lhs for upper bounds (lhs <= rhs), lhs - rhs for lower
    bounds.  ``holds``/``equality`` use tolerance 1e-9 relative to the
    larger side.  ``inputs`` records n, m, k, t where applicable and
    ``extra`` carries per-bound metadata (variants, tau forms, notes).
    """

    bound_id: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    equality: bool
    inputs: dict
    extra: dict = field(default_factory=dict)


def _tolerance(lhs: float, rhs: float) -> float:
    return 1e-9 * max(1.0, abs(lhs), abs(rhs))


def _report(
    bound_id: str,
    lhs: float,
    rhs: float,
    claim: str,
    inputs: dict,
    extra: dict | None = None,
) -> BoundReport:
    if claim == "le":
        slack = rhs - lhs
    elif claim == "ge":
        slack = lhs - rhs
    else:
        raise ValueError(f"claim must be 'le' or 'ge', got {claim!r}")
    tol = _tolerance(lhs, rhs)
    return BoundReport(
        bound_id=bound_id,
        lhs=float(lhs),
        rhs=float(rhs),
        slack=float(slack),
        holds=bool(slack >= -tol),
        equality=bool(abs(slack) <= tol),
        inputs=inputs,
        extra={"claim": claim, **(extra or {})},
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


def _sum_largest_core(theta: int, t: int, variant: str) -> float:
    """(theta + sqrt(theta*(t*theta + t - 1))) / denominator."""
    if variant == AS_WRITTEN:
        den = 2 * theta + 1
    elif variant == THETA_PLUS_ONE:
        den = 2 * (theta + 1)
    else:
        raise ValueError(f"unknown variant {variant!r}; pick one of {VARIANTS}")
    return (theta + math.sqrt(theta * (t * theta + t - 1))) / den


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
    n = matrix.shape[0]
    if not 2 <= t <= n:
        raise ValueError(f"need 2 <= t <= n, got t={t}, n={n}")
    if spectrum is None:
        spectrum = eigendecompose(matrix)
    theta = negative_count(spectrum)
    a = float(matrix.min())
    b = float(matrix.max())
    lhs = float(np.sum(spectrum.eigenvalues[:t]))
    rhs_by_variant = {
        v: n * (_sum_largest_core(theta, t, v) * (b - a) + max(0.0, a))
        for v in VARIANTS
    }
    rhs = rhs_by_variant[variant]
    return _report(
        "thm3.1-sum-largest",
        lhs,
        rhs,
        "le",
        {"n": n, "m": None, "k": None, "t": t},
        {
            "variant": variant,
            "theta": theta,
            "entry_min": a,
            "entry_max": b,
            "rhs_as_written": rhs_by_variant[AS_WRITTEN],
            "rhs_theta_plus_one": rhs_by_variant[THETA_PLUS_ONE],
            "tighter_variant": (
                THETA_PLUS_ONE
                if rhs_by_variant[THETA_PLUS_ONE] < rhs_by_variant[AS_WRITTEN]
                else "tie"
            ),
            "tau_lhs": lhs / n,
            "tau_rhs": rhs / n,
        },
    )


def check_sum_t_largest_hypergraph(
    h: Hypergraph,
    t: int,
    k: int | None = None,
    variant: str = AS_WRITTEN,
    spectrum: Spectrum | None = None,
) -> BoundReport:
    """Sum of the t largest adjacency eigenvalues of a uniform hypergraph
    against n*C(n-2, k-2)*core(theta, t)."""
    n = h.n
    if not 2 <= t <= n:
        raise ValueError(f"need 2 <= t <= n, got t={t}, n={n}")
    k = _resolve_k(h, k)
    if spectrum is None:
        spectrum = spectrum_of(h)
    theta = negative_count(spectrum)
    lhs = float(np.sum(spectrum.eigenvalues[:t]))
    if theta == 0:
        rhs_by_variant = {v: 0.0 for v in VARIANTS}
    else:
        pair_cap = math.comb(n - 2, k - 2)
        rhs_by_variant = {
            v: n * pair_cap * _sum_largest_core(theta, t, v) for v in VARIANTS
        }
    rhs = rhs_by_variant[variant]
    return _report(
        "cor3.2-sum-largest",
        lhs,
        rhs,
        "le",
        {"n": n, "m": h.m, "k": k, "t": t},
        {
            "variant": variant,
            "theta": theta,
            "rhs_as_written": rhs_by_variant[AS_WRITTEN],
            "rhs_theta_plus_one": rhs_by_variant[THETA_PLUS_ONE],
            "tighter_variant": (
                THETA_PLUS_ONE
                if rhs_by_variant[THETA_PLUS_ONE] < rhs_by_variant[AS_WRITTEN]
                else "tie"
            ),
        },
    )


def check_moment2_bounds(
    h: Hypergraph,
    k: int | None = None,
    spectrum: Spectrum | None = None,
) -> tuple[BoundReport, BoundReport]:
    """Second spectral moment, the exact trace of A^2, squeezed between
    k(k-1)m and (k-1)m(m(k-2)+2); one report per side so equality flags
    stay independent."""
    k = _resolve_k(h, k)
    if spectrum is None:
        spectrum = spectrum_of(h)
    m2 = spectral_moment(spectrum, 2)
    m = h.m
    inputs = {"n": h.n, "m": m, "k": k, "t": None}
    lower = 0.0 if m == 0 else float(k * (k - 1) * m)
    upper = 0.0 if m == 0 else float((k - 1) * m * (m * (k - 2) + 2))
    return (
        _report("thm2.12-moment-lower", lower, m2, "le", inputs),
        _report("thm2.12-moment-upper", m2, upper, "le", inputs),
    )


def check_ee_lower_spectral(
    h: Hypergraph, spectrum: Spectrum | None = None
) -> BoundReport:
    """Estrada index against exp(lambda1) + (n-1) - lambda1 from below."""
    if spectrum is None:
        spectrum = spectrum_of(h)
    lam1 = spectrum.lambda1
    lhs = estrada_index(spectrum)
    rhs = math.exp(lam1) + (h.n - 1) - lam1
    return _report(
        "ee-lower-spectral", lhs, rhs, "ge", {"n": h.n, "m": h.m, "k": None, "t": None}
    )


def check_ee_lower_edges(
    h: Hypergraph,
    k: int | None = None,
    spectrum: Spectrum | None = None,
) -> BoundReport:
    """Estrada index against sqrt(n^2 + 4k(k-1)m/2) from below; equality
    exactly on edgeless input."""
    k = _resolve_k(h, k)
    if spectrum is None:
        spectrum = spectrum_of(h)
    lhs = estrada_index(spectrum)
    edge_term = 0.0 if h.m == 0 else 4 * k * (k - 1) * h.m / 2
    rhs = math.sqrt(h.n**2 + edge_term)
    return _report(
        "thm4.1-ee-lower", lhs, rhs, "ge", {"n": h.n, "m": h.m, "k": k, "t": None}
    )


def _moment2_upper_root(k: int | None, m: int) -> float:
    return 0.0 if m == 0 else math.sqrt((k - 1) * m * (m * (k - 2) + 2))


def check_ee_upper_edges(
    h: Hypergraph,
    k: int | None = None,
    spectrum: Spectrum | None = None,
) -> BoundReport:
    """Estrada index against n - 1 + exp(sqrt((k-1)m(m(k-2)+2))) from
    above; equality exactly on edgeless input."""
    k = _resolve_k(h, k)
    if spectrum is None:
        spectrum = spectrum_of(h)
    lhs = estrada_index(spectrum)
    rhs = h.n - 1 + math.exp(_moment2_upper_root(k, h.m))
    return _report(
        "thm4.2-ee-upper", lhs, rhs, "le", {"n": h.n, "m": h.m, "k": k, "t": None}
    )


def check_ee_upper_energy(
    h: Hypergraph,
    k: int | None = None,
    spectrum: Spectrum | None = None,
) -> tuple[BoundReport, BoundReport]:
    """Two energy-based Estrada upper bounds: the refined
    n + E - 1 - root + exp(root) with root = sqrt((k-1)m(m(k-2)+2)), and
    the coarse n - 1 + exp(E)."""
    k = _resolve_k(h, k)
    if spectrum is None:
        spectrum = spectrum_of(h)
    lhs = estrada_index(spectrum)
    e_total = energy(spectrum)
    root = _moment2_upper_root(k, h.m)
    inputs = {"n": h.n, "m": h.m, "k": k, "t": None}
    refined = _report(
        "thm4.3-ee-upper-energy",
        lhs,
        h.n + e_total - 1 - root + math.exp(root),
        "le",
        inputs,
        {"energy": e_total},
    )
    coarse = _report(
        "rem4.4-ee-upper-energy",
        lhs,
        h.n - 1 + math.exp(e_total),
        "le",
        inputs,
        {"energy": e_total},
    )
    return refined, coarse


def _complement_adjacency(a: np.ndarray, k: int) -> np.ndarray:
    """Adjacency of the k-uniform complement from the adjacency a of a
    k-uniform hypergraph, without listing the complement's edges.

    Every vertex pair lies in C(n-2, k-2) k-subsets, so the complement's
    pair counts are C(n-2, k-2)*(J - I) - a.
    """
    n = a.shape[0]
    if not 2 <= k <= n:
        raise HypergraphError(f"need 2 <= k <= n for complement, got k={k}, n={n}")
    # a pair count past int64 raises here instead of wrapping
    bar = np.full((n, n), np.int64(math.comb(n - 2, k - 2)))
    np.fill_diagonal(bar, 0)
    return bar - a


def check_nordhaus_gaddum(
    h: Hypergraph,
    k: int | None = None,
    spectrum: Spectrum | None = None,
) -> BoundReport:
    """Estrada index of h plus that of its k-uniform complement against
    2*exp((n-1)/2) + 2(n-1)*exp(-1/2) from below."""
    k = _resolve_k(h, k)
    if k is None:
        raise HypergraphError("complement of an edgeless hypergraph needs an explicit k")
    if spectrum is None:
        spectrum = spectrum_of(h)
    ee = estrada_index(spectrum)
    ee_bar = estrada_index(eigendecompose(_complement_adjacency(spectrum.matrix, k)))
    lhs = ee + ee_bar
    rhs = 2 * math.exp((h.n - 1) / 2) + 2 * (h.n - 1) * math.exp(-0.5)
    return _report(
        "thm4.5-nordhaus-gaddum",
        lhs,
        rhs,
        "ge",
        {"n": h.n, "m": h.m, "k": k, "t": None},
        {"ee": ee, "ee_complement": ee_bar},
    )


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
        if flat_beta is not None and n >= 2:
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
    tol = spectrum.zero_tolerance
    (v1, m1), (v2, m2) = clusters
    if not (
        m1 == 1
        and m2 == n - 1
        and abs(v1 - beta * (n - 1)) <= tol
        and abs(v2 + beta) <= tol
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
        if not all(d == cert.r for d in degrees(h)):
            raise CharacterizationMismatchError(
                f"degrees differ from replication count {cert.r}"
            )
    return beta, cert


# --- aggregated bound run ---------------------------------------------------


def _first_missing_edge(h: Hypergraph, k: int | None) -> tuple[int, ...] | None:
    if k is None or k > h.n:
        return None
    from itertools import combinations

    present = set(h.edges)
    for cand in combinations(range(h.n), k):
        if cand not in present:
            return cand
    return None


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
    """
    k = _resolve_k(h, k)
    spectrum = spectrum_of(h)
    reports = [
        check_sum_t_largest_matrix(spectrum.matrix, t, variant, spectrum=spectrum),
        check_sum_t_largest_hypergraph(h, t, k, variant, spectrum=spectrum),
        *check_moment2_bounds(h, k, spectrum=spectrum),
        check_ee_lower_spectral(h, spectrum=spectrum),
        check_ee_lower_edges(h, k, spectrum=spectrum),
        check_ee_upper_edges(h, k, spectrum=spectrum),
        *check_ee_upper_energy(h, k, spectrum=spectrum),
        check_nordhaus_gaddum(h, k, spectrum=spectrum),
    ]
    probe = _first_missing_edge(h, k)
    if probe is not None:
        grown = add_edge(h, probe)
        reports.append(
            _report(
                "ee-monotonicity",
                estrada_index(spectrum),
                estrada_index(spectrum_of(grown)),
                "le",
                {"n": h.n, "m": h.m, "k": k, "t": None},
                {"added_edge": list(probe)},
            )
        )
    return sorted(reports, key=lambda r: r.bound_id)


# --- ordering suites ---------------------------------------------------------


@dataclass(frozen=True)
class OrderingInstance:
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
    m = 4
    while (k - 1) * m <= size_budget:
        s = 0
        while (k - 1) * (m + s) <= size_budget:
            for comp in fam.compositions(s, m):
                if comp[2] != max(comp):
                    continue
                h = fam.unicyclic_cm(k, list(comp))
                label = fam.cm_label(k, comp)
                out.append((label, h, label + "->reduced", ring_reduction(h, m, k)))
            s += 1
        m += 1
    return out


def _lemma27_sides(k: int, size_budget: int) -> list[_Sides]:
    out = []
    s = 3
    while (k - 1) * (3 + s) <= size_budget:
        for n1 in range(1, s - 1):
            for n2 in range(1, s - n1 + 1):
                n3 = s - n1 - n2
                if not n1 >= n2 >= n3 >= 1:
                    continue
                middle = fam.cm_label(k, (n1 + n2, n3, 0))
                out.append(_pair(fam.cm_label(k, (n1, n2, n3)), middle))
                out.append(_pair(middle, fam.cm_label(k, (n1 + n2 + n3, 0, 0))))
        s += 1
    return out


def _lemma42_sides(k: int, size_budget: int) -> list[_Sides]:
    out = []
    s = 2
    while (k - 1) * (2 + s) <= size_budget:
        for n2 in range(1, s // 2 + 1):
            n1 = s - n2
            if n1 < n2:
                continue
            out.append(_pair(fam.cm_label(k, (n1, n2)), fam.cm_label(k, (n1 + 1, n2 - 1))))
        s += 1
    return out


def _lemma43_sides(k: int, size_budget: int) -> list[_Sides]:
    out = []
    q = 4
    while (k - 1) * q <= size_budget:
        out.append(_pair(fam.cm_label(k, (q - 3, 0, 0)), fam.cm_label(k, (q - 3, 1))))
        q += 1
    return out


def _monotonicity_sides(k: int, size_budget: int) -> list[_Sides]:
    from itertools import combinations

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
    fits in ``size_budget`` total vertices.

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
            instances.append(OrderingInstance(left, right, el, er, bool(el < er)))
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

    @property
    def max_ee(self) -> float:
        return self.ranking[0][1]


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
    # ties within tolerance (isomorphic entries differ in the last bits)
    # share their group's leading value and rank by label, so neither the
    # order nor the reported values depend on solver noise
    groups: list[list[tuple[str, float]]] = []
    for label, ee in by_value:
        if groups and groups[-1][0][1] - ee <= 1e-9 * max(1.0, abs(ee)):
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
        raise HypergraphError(
            f"catalog for n_over={n_over}, k={k} has a single Estrada value"
        )
    max_labels = tuple(label for label, _ in groups[0])
    second_labels = tuple(label for label, _ in groups[1])
    max_is_expected = expected_max_label in max_labels
    second_is_expected = expected_second_label in second_labels
    max_unique = len(groups) > 1
    shapes = dict(catalog)
    diameter_max = diameter(shapes[max_labels[0]])
    diameter_second = diameter(shapes[second_labels[0]])
    diameters_expected = (
        (diameter_max, diameter_second) == (2, 3) if n_over >= 4 else True
    )
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


# --- serialization -----------------------------------------------------------


def bound_report_to_dict(report: BoundReport) -> dict:
    return {
        "bound_id": report.bound_id,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "slack": report.slack,
        "holds": report.holds,
        "equality": report.equality,
        "inputs": report.inputs,
        "extra": report.extra,
    }


def bound_reports_to_csv(reports: list[BoundReport]) -> str:
    from .spectral import format_float

    lines = ["bound_id,n,m,k,t,lhs,rhs,slack,holds,equality"]
    for r in reports:
        cells = [
            r.bound_id,
            *("" if r.inputs.get(key) is None else str(r.inputs[key]) for key in "nmkt"),
            format_float(r.lhs),
            format_float(r.rhs),
            format_float(r.slack),
            str(r.holds).lower(),
            str(r.equality).lower(),
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def ordering_report_to_dict(report: OrderingReport) -> dict:
    return {
        "lemma_id": report.lemma_id,
        "all_strict": report.all_strict,
        "instances": [
            {
                "left": inst.left,
                "right": inst.right,
                "ee_left": inst.ee_left,
                "ee_right": inst.ee_right,
                "gap": inst.gap,
                "strict_holds": inst.strict_holds,
            }
            for inst in report.instances
        ],
    }


def ordering_reports_to_csv(reports: list[OrderingReport]) -> str:
    from .spectral import format_float

    lines = ["lemma_id,left,right,ee_left,ee_right,gap,strict_holds"]
    for report in reports:
        for inst in report.instances:
            lines.append(
                ",".join(
                    [
                        report.lemma_id,
                        inst.left,
                        inst.right,
                        format_float(inst.ee_left),
                        format_float(inst.ee_right),
                        format_float(inst.gap),
                        str(inst.strict_holds).lower(),
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def extremal_report_to_dict(report: ExtremalReport) -> dict:
    return {
        "n_over": report.n_over,
        "k": report.k,
        "n": report.n,
        "ranking": [[label, ee] for label, ee in report.ranking],
        "max_labels": list(report.max_labels),
        "second_labels": list(report.second_labels),
        "expected_max_label": report.expected_max_label,
        "expected_second_label": report.expected_second_label,
        "max_is_expected": report.max_is_expected,
        "second_is_expected": report.second_is_expected,
        "max_unique": report.max_unique,
        "diameter_max": report.diameter_max,
        "diameter_second": report.diameter_second,
        "diameters_expected": report.diameters_expected,
        "passed": report.passed,
        "scope_note": report.scope_note,
    }
