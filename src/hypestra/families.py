"""Deterministic generators for the named hypergraph families.

Every ring-based shape (``cycle``, ``unicyclic_cm``, ``x_n``,
``g_star_star`` and the unicyclic catalog) has one vertex layout: ring
vertex i is i, and ring edge i joins ring vertices i and i+1 (mod m);
filler j of ring edge i is m + i(k-2) + j; then each pendant edge takes
the next k-1 fresh vertices, attached in vertex order, so a pendant edge
may hang off a pendant vertex made earlier.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, NamedTuple

import numpy as np

from .hypercore import (
    DuplicateEdgeError,
    Hypergraph,
    HypergraphError,
    degrees,
    uniformity,
    VACUOUS,
)


class FamilyGrammarError(ValueError):
    """Malformed family description string."""


def complete_uniform(n: int, k: int) -> Hypergraph:
    """All k-subsets of n vertices."""
    if not 2 <= k <= n:
        raise HypergraphError(f"complete family needs 2 <= k <= n, got k={k}, n={n}")
    return Hypergraph._trusted(n, tuple(combinations(range(n), k)))


def edgeless(n: int) -> Hypergraph:
    """n vertices, no edges."""
    return Hypergraph(n, [])


def _ring(m: int, k: int, counts: tuple[int, ...] = ()) -> Hypergraph:
    """Ring of m k-edges with counts[v] pendant edges at vertex v, laid
    out as the module docstring states."""
    if m < 2 or k < 2:
        raise HypergraphError(f"ring needs m >= 2 and k >= 2, got m={m}, k={k}")
    if m == k == 2:
        raise DuplicateEdgeError("duplicate edge (0, 1)")
    n = m * (k - 1)
    edges = [(i, i + 1, *range(m + i * (k - 2), m + (i + 1) * (k - 2))) for i in range(m - 1)]
    edges.append((0, m - 1, *range(n - (k - 2), n)))  # the wrap-around ring edge, sorted
    for v, count in enumerate(counts):
        for _ in range(count):
            edges.append((v, *range(n, n + k - 1)))
            n += k - 1
    return Hypergraph._trusted(n, tuple(sorted(edges)))


def cycle(m: int, k: int) -> Hypergraph:
    """k-uniform ring of m edges; edge i joins ring vertices i and i+1 (mod m).

    The order is m*(k-1).  A ring of two 2-vertex edges would repeat an
    edge, so m=2 requires k >= 3 (DuplicateEdgeError otherwise).
    """
    return _ring(m, k)


def unicyclic_cm(k: int, pendants: list[int]) -> Hypergraph:
    """Ring of m = len(pendants) edges with pendants[i] pendant edges at
    ring vertex i.  Order is (k-1) * (m + sum(pendants))."""
    m = len(pendants)
    if m < 2:
        raise HypergraphError(f"need at least 2 ring edges, got {m}")
    if any(p < 0 for p in pendants):
        raise HypergraphError(f"pendant counts must be >= 0, got {pendants}")
    return _ring(m, k, tuple(pendants))


def x_n(n: int, k: int) -> Hypergraph:
    """The two-edge-ring family with all pendants on one ring vertex:
    ring of 2 edges plus n/(k-1) - 2 pendant edges at ring vertex 0."""
    if k < 2 or n % (k - 1) != 0:
        raise HypergraphError(f"order {n} is not a multiple of k-1 = {k - 1}")
    q = n // (k - 1)
    if q < 2:
        raise HypergraphError(f"order {n} is too small for a ring with k={k}")
    return unicyclic_cm(k, [q - 2, 0])


def hyperstar(k: int, s: int) -> Hypergraph:
    """s edges of size k sharing exactly one common center vertex (vertex 0)."""
    if s < 1 or k < 2:
        raise HypergraphError(f"hyperstar needs s >= 1 and k >= 2, got s={s}, k={k}")
    edges = []
    nxt = 1
    for _ in range(s):
        edges.append([0] + list(range(nxt, nxt + k - 1)))
        nxt += k - 1
    return Hypergraph(nxt, edges)


def path_p3(k: int) -> Hypergraph:
    """Three k-edges chained through the cut vertices k-1 and 2(k-1); the
    ends are 0 and 3(k-1), so the order is 3(k-1)+1.

    Needs k >= 3 so every edge has interior filler vertices.
    """
    if k < 3:
        raise HypergraphError(f"three-edge path needs k >= 3, got {k}")
    edges = [range(i * (k - 1), (i + 1) * (k - 1) + 1) for i in range(3)]
    return Hypergraph(3 * (k - 1) + 1, edges)


def g_star_star(k: int) -> Hypergraph:
    """Two-edge ring plus one pendant edge at the filler vertex 2 of ring
    edge 0; order 3(k-1)."""
    if k < 3:
        raise HypergraphError(f"needs k >= 3, got {k}")
    return _ring(2, k, (0, 0, 1))


def fano_plane() -> Hypergraph:
    """The 7-point, 7-block, pairwise-balanced triple system."""
    blocks = [
        (0, 1, 2),
        (0, 3, 4),
        (0, 5, 6),
        (1, 3, 5),
        (1, 4, 6),
        (2, 3, 6),
        (2, 4, 5),
    ]
    return Hypergraph(7, blocks)


@dataclass(frozen=True)
class BIBDCertificate:
    """Witness that a hypergraph is a pairwise-balanced block design:
    n points, b blocks of size k, every pair in exactly beta blocks,
    every point in exactly r blocks."""

    n: int
    b: int
    k: int
    beta: int
    r: int

    def __post_init__(self):
        if self.beta * (self.n - 1) != self.r * (self.k - 1):
            raise ValueError("replication count does not match beta*(n-1)/(k-1)")
        if self.b * self.k != self.n * self.r:
            raise ValueError("block/point incidence totals disagree")


def bibd_validate(h: Hypergraph) -> BIBDCertificate | None:
    """Certificate if every vertex pair lies in the same number beta >= 1
    of edges; None otherwise.

    Only uniform hypergraphs qualify (non-uniform input raises), and the
    block size must sit strictly below the point count, so edgeless input
    and n <= k return None.
    """
    k = uniformity(h)
    if k is None:
        raise HypergraphError("design validation requires a uniform hypergraph")
    if k is VACUOUS:
        return None
    if not h.n > k >= 2:
        return None
    pair_counts: dict[tuple[int, int], int] = {}
    for e in h.edges:
        for p in combinations(e, 2):
            pair_counts[p] = pair_counts.get(p, 0) + 1
    covered = set(pair_counts.values())
    if len(pair_counts) != math.comb(h.n, 2) or len(covered) != 1:
        return None
    # every pair is counted at least once, so beta >= 1; vertex v lies in
    # deg(v)(k - 1) = beta(n - 1) covered pairs, so r divides out exactly
    beta = covered.pop()
    r = beta * (h.n - 1) // (k - 1)
    if not bool(np.all(degrees(h) == r)):
        # reaching here means the pair counting above is broken
        raise AssertionError("pair-balanced design with unequal degrees")
    return BIBDCertificate(n=h.n, b=h.m, k=k, beta=beta, r=r)


def random_uniform(n: int, k: int, m: int, rng: random.Random) -> Hypergraph:
    """m distinct k-subsets of n vertices sampled without replacement."""
    if not 2 <= k <= n:
        raise HypergraphError(f"need 2 <= k <= n, got k={k}, n={n}")
    pool = list(combinations(range(n), k))
    if not 0 <= m <= len(pool):
        raise HypergraphError(f"need 0 <= m <= {len(pool)}, got m={m}")
    return Hypergraph(n, rng.sample(pool, m))


# --- unicyclic catalog ------------------------------------------------------


class CatalogEntry(NamedTuple):
    label: str
    hypergraph: Hypergraph


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`,
    in lexicographic order."""
    if parts <= 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def unicyclic_catalog(n_over: int, k: int) -> list[CatalogEntry]:
    """Deterministic catalog of unicyclic shapes of order (k-1)*n_over.

    Covers, in order: rings with pendant edges distributed over the ring
    vertices (``cm:...`` labels); placements that also use the ring filler
    vertices (``cmx:...``); and depth-2 chains where one extra pendant edge
    hangs off a pendant-edge vertex (``...+deep@i``).  Isomorphic shapes
    may repeat under different labels; they carry equal statistics.
    """
    if n_over < 2:
        raise HypergraphError(f"need n_over >= 2, got {n_over}")
    if k < 2:
        raise HypergraphError(f"need k >= 2, got {k}")
    entries: list[CatalogEntry] = []
    min_m = 3 if k == 2 else 2
    for m in range(min_m, n_over + 1):
        for comp in compositions(n_over - m, m):
            entries.append(CatalogEntry(cm_label(k, comp), _ring(m, k, comp)))
    if k > 2:
        for m in range(min_m, n_over + 1):
            for comp in compositions(n_over - m, m * (k - 1)):
                if any(comp[m:]):  # pure ring-vertex placements already emitted
                    entries.append(CatalogEntry(cm_label(k, comp, m), _ring(m, k, comp)))
    for m in range(min_m, n_over):
        for comp in compositions(n_over - m - 1, m):
            for i in range(m):
                if comp[i]:
                    # the first vertex of the first pendant edge at ring vertex i
                    outer = (k - 1) * (m + sum(comp[:i]))
                    counts = comp + (0,) * (outer - m) + (1,)
                    label = f"{cm_label(k, comp)}+deep@{i}"
                    entries.append(CatalogEntry(label, _ring(m, k, counts)))
    return entries


# --- family grammar ----------------------------------------------------------


def cm_label(k: int, pendants: tuple[int, ...], ring: int | None = None) -> str:
    """Catalog label of a ring with pendant counts: the grammar label
    ``cm:k:n1,n2,...`` or, given the ring length, the report-only label
    ``cmx:k:m:...`` whose counts run over ring vertices, then fillers."""
    head = f"cm:{k}:" if ring is None else f"cmx:{k}:{ring}:"
    return head + ",".join(map(str, pendants))


#: label head -> (number of integer parameters, builder taking them in order)
_FAMILIES = {
    "complete": (2, complete_uniform),
    "edgeless": (1, edgeless),
    "cycle": (2, cycle),
    "xn": (2, x_n),
    "star": (2, hyperstar),
    "p3": (1, path_p3),
    "gss": (1, g_star_star),
    "fano": (0, fano_plane),
}


def _ints(text: str, where: str) -> tuple[int, ...]:
    parts = text.split(",") if text else []
    out = []
    for i, tok in enumerate(parts):
        try:
            out.append(int(tok))
        except ValueError:
            raise FamilyGrammarError(
                f"{where}: expected an integer at position {i + 1}, got {tok!r}"
            ) from None
    return tuple(out)


def build_family(text: str) -> Hypergraph:
    """Build the hypergraph a family label names.

    Grammar: ``complete:n,k`` | ``edgeless:n`` | ``cycle:m,k`` |
    ``cm:k:n1,n2,...`` | ``xn:n,k`` | ``star:k,s`` | ``p3:k`` |
    ``gss:k`` | ``fano``.
    """
    head, _, rest = text.strip().partition(":")
    if head == "cm":
        k_text, sep, pendant_text = rest.partition(":")
        if not sep:
            raise FamilyGrammarError(f"{text}: expected cm:k:n1,n2,...")
        k = _ints(k_text, text)
        if len(k) != 1:
            raise FamilyGrammarError(f"{text}: cm needs a single k before the pendant list")
        pendants = _ints(pendant_text, text)
        if len(pendants) < 2:
            raise FamilyGrammarError(f"{text}: cm needs at least two pendant counts")
        return unicyclic_cm(k[0], list(pendants))
    if head not in _FAMILIES:
        raise FamilyGrammarError(f"unknown family {head!r} at position 1 of {text!r}")
    arity, builder = _FAMILIES[head]
    if arity == 0 and rest:
        raise FamilyGrammarError(f"{head} takes no parameters")
    values = _ints(rest, text)
    if len(values) != arity:
        raise FamilyGrammarError(
            f"{text}: {head} takes {arity} integer parameter(s), got {len(values)}"
        )
    return builder(*values)
