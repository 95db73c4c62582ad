"""Hypergraph data model and structural operations.

Vertices are dense 0-based indices ``0..n-1``.  Edges are vertex sets of
size >= 2, stored as strictly increasing tuples, and the edge list is kept
in lexicographic order so that equal hypergraphs serialize identically.
Hypergraphs are immutable; every operation returns a new value.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import Iterable

import numpy as np


class HypergraphError(ValueError):
    """Invalid hypergraph construction or operation."""


class DuplicateEdgeError(HypergraphError):
    """An operation would create two equal edges."""


class DisconnectedError(HypergraphError):
    """Raised where an operation requires a connected hypergraph."""


class ParseError(HypergraphError):
    """Malformed hypergraph file."""


class _Vacuous:
    """Marker returned by :func:`uniformity` for edgeless hypergraphs."""

    def __repr__(self) -> str:
        return "VACUOUS"


#: Edgeless hypergraphs are k-uniform for every k; ``uniformity`` returns
#: this marker instead of picking an arbitrary k.
VACUOUS = _Vacuous()

Edge = tuple[int, ...]


def _canonical_edge(n: int, e: Iterable[int]) -> Edge:
    edge = tuple(sorted(e))
    if len(set(edge)) != len(edge):
        raise HypergraphError(f"edge {edge} repeats a vertex")
    if len(edge) < 2:
        raise HypergraphError(f"edge {edge} has fewer than 2 vertices")
    if edge[0] < 0 or edge[-1] >= n:
        raise HypergraphError(f"edge {edge} uses a vertex outside 0..{n - 1}")
    return edge


class Hypergraph:
    """A simple finite hypergraph on vertices ``0..n-1``.

    Parameters
    ----------
    n : int
        Number of vertices.
    edges : iterable of iterables of int
        Edge list; each edge must have >= 2 distinct vertices below ``n``
        and no two edges may be equal as sets.
    """

    __slots__ = ("n", "edges")

    n: int
    edges: tuple[Edge, ...]

    def __init__(self, n: int, edges: Iterable[Iterable[int]]):
        if n < 0:
            raise HypergraphError(f"vertex count must be >= 0, got {n}")
        canon = [_canonical_edge(n, e) for e in edges]
        seen = set()
        for e in canon:
            if e in seen:
                raise DuplicateEdgeError(f"duplicate edge {e}")
            seen.add(e)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    def __setattr__(self, name, value):
        raise AttributeError("Hypergraph is immutable")

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, edges={list(map(list, self.edges))})"

    def edge_index(self, e: Iterable[int]) -> int:
        """Position of edge ``e`` in the canonical edge list."""
        edge = tuple(sorted(e))
        try:
            return self.edges.index(edge)
        except ValueError:
            raise HypergraphError(f"edge {edge} not present") from None


def uniformity(h: Hypergraph):
    """Common edge size, or ``None`` if sizes differ, or ``VACUOUS`` if edgeless."""
    if not h.edges:
        return VACUOUS
    sizes = {len(e) for e in h.edges}
    if len(sizes) == 1:
        return sizes.pop()
    return None


def is_k_uniform(h: Hypergraph, k: int) -> bool:
    """True if every edge has exactly k vertices (vacuously true if edgeless)."""
    return all(len(e) == k for e in h.edges)


def degrees(h: Hypergraph) -> np.ndarray:
    """Vector of vertex degrees: entry v counts the edges containing v."""
    d = np.zeros(h.n, dtype=np.int64)
    for e in h.edges:
        for v in e:
            d[v] += 1
    return d


def is_regular(h: Hypergraph, r: int) -> bool:
    """True if every vertex has degree exactly r."""
    return bool(np.all(degrees(h) == r))


def complement_uniform(h: Hypergraph, k: int) -> Hypergraph:
    """k-uniform complement: all k-subsets of the vertex set absent from h.

    Requires h to be k-uniform (edgeless counts for any k) and k <= n.
    An involution: the complement of the complement is h again.
    """
    if not 2 <= k <= h.n:
        raise HypergraphError(f"need 2 <= k <= n for complement, got k={k}, n={h.n}")
    if not is_k_uniform(h, k):
        raise HypergraphError(f"hypergraph is not {k}-uniform")
    present = set(h.edges)
    absent = [c for c in combinations(range(h.n), k) if c not in present]
    return Hypergraph(h.n, absent)


def shrink(h: Hypergraph, v: int, edge_index: int) -> Hypergraph:
    """Remove vertex v from edge ``edge_index``, leaving all other edges alone.

    The shrunk edge must keep size >= 2 and must not collide with an
    existing edge.  The result may be non-uniform.
    """
    e = h.edges[edge_index]
    if v not in e:
        raise HypergraphError(f"vertex {v} is not in edge {e}")
    if len(e) <= 2:
        raise HypergraphError(f"shrinking edge {e} would leave fewer than 2 vertices")
    shrunk = tuple(w for w in e if w != v)
    if shrunk in h.edges:
        raise DuplicateEdgeError(f"shrinking {e} at {v} duplicates edge {shrunk}")
    new_edges = list(h.edges)
    new_edges[edge_index] = shrunk
    return Hypergraph(h.n, new_edges)


def extend_edge(h: Hypergraph, edge_index: int, v: int) -> Hypergraph:
    """Add vertex v to edge ``edge_index`` (the inverse of :func:`shrink`)."""
    e = h.edges[edge_index]
    if not 0 <= v < h.n:
        raise HypergraphError(f"vertex {v} outside 0..{h.n - 1}")
    if v in e:
        raise HypergraphError(f"vertex {v} already in edge {e}")
    extended = tuple(sorted(e + (v,)))
    if extended in h.edges:
        raise DuplicateEdgeError(f"extending {e} by {v} duplicates edge {extended}")
    new_edges = list(h.edges)
    new_edges[edge_index] = extended
    return Hypergraph(h.n, new_edges)


def add_edge(h: Hypergraph, e: Iterable[int]) -> Hypergraph:
    """Insert a new edge at its canonical position."""
    edge = _canonical_edge(h.n, e)
    if edge in h.edges:
        raise DuplicateEdgeError(f"duplicate edge {edge}")
    return Hypergraph(h.n, h.edges + (edge,))


def edge_swap(
    h: Hypergraph,
    stems: Iterable[Iterable[int]],
    from_v: int,
    to_v: int,
) -> Hypergraph:
    """Move a bundle of edges from one attachment vertex to another.

    Each stem e must be disjoint from {from_v, to_v}, and e + {from_v}
    must be an edge of h.  Every such edge is removed and e + {to_v} is
    inserted instead.  An empty stem list returns h unchanged.
    """
    stem_edges = [tuple(sorted(s)) for s in stems]
    removed = []
    inserted = []
    for s in stem_edges:
        if from_v in s or to_v in s:
            raise HypergraphError(f"stem {s} must avoid both {from_v} and {to_v}")
        old = tuple(sorted(s + (from_v,)))
        if old not in h.edges:
            raise HypergraphError(f"edge {old} not present in hypergraph")
        removed.append(old)
        inserted.append(tuple(sorted(s + (to_v,))))
    removed_set = set(removed)
    if len(removed_set) != len(removed):
        raise HypergraphError("stem list names the same edge twice")
    kept = [e for e in h.edges if e not in removed_set]
    for e in inserted:
        if e in kept:
            raise DuplicateEdgeError(f"swap would duplicate edge {e}")
        kept.append(e)
    return Hypergraph(h.n, kept)


def coalesce(h1: Hypergraph, u: int, h2: Hypergraph, w: int) -> Hypergraph:
    """Glue h2 onto h1 by identifying vertex w of h2 with vertex u of h1.

    The result has n1 + n2 - 1 vertices and m1 + m2 edges; h1 keeps its
    labels and the remaining vertices of h2 are appended in order.
    """
    if not 0 <= u < h1.n:
        raise HypergraphError(f"vertex {u} outside 0..{h1.n - 1}")
    if not 0 <= w < h2.n:
        raise HypergraphError(f"vertex {w} outside 0..{h2.n - 1}")
    relabel = {}
    nxt = h1.n
    for x in range(h2.n):
        if x == w:
            relabel[x] = u
        else:
            relabel[x] = nxt
            nxt += 1
    edges = list(h1.edges) + [tuple(sorted(relabel[x] for x in e)) for e in h2.edges]
    return Hypergraph(h1.n + h2.n - 1, edges)


def _neighbor_sets(h: Hypergraph) -> list[set[int]]:
    nbrs: list[set[int]] = [set() for _ in range(h.n)]
    for e in h.edges:
        for v in e:
            nbrs[v].update(e)
    for v in range(h.n):
        nbrs[v].discard(v)
    return nbrs


def distance_matrix(h: Hypergraph) -> np.ndarray:
    """All-pairs shortest walk lengths; unreachable pairs are -1."""
    nbrs = _neighbor_sets(h)
    dist = np.full((h.n, h.n), -1, dtype=np.int64)
    for src in range(h.n):
        dist[src, src] = 0
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for x in frontier:
                for y in nbrs[x]:
                    if dist[src, y] < 0:
                        dist[src, y] = d
                        nxt.append(y)
            frontier = nxt
    return dist


def is_connected(h: Hypergraph) -> bool:
    """True if every vertex pair is joined by a walk (single vertex counts)."""
    if h.n <= 1:
        return True
    return bool(np.all(distance_matrix(h) >= 0))


def diameter(h: Hypergraph) -> int:
    """Largest pairwise distance; raises DisconnectedError if unreachable pairs exist."""
    dist = distance_matrix(h)
    if np.any(dist < 0):
        raise DisconnectedError("diameter is undefined for a disconnected hypergraph")
    return int(dist.max())


# --- file formats ----------------------------------------------------------
#
# Text: first significant line is n; every following significant line is one
# edge as whitespace-separated vertex indices; '#' starts a comment line.
# JSON: {"n": <int>, "edges": [[...], ...]} with sorted inner lists.


def to_text(h: Hypergraph) -> str:
    """Canonical text serialization."""
    lines = [str(h.n)]
    lines += [" ".join(map(str, e)) for e in h.edges]
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Hypergraph:
    """Parse the text format, reporting the offending line on errors."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            values = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(f"line {lineno}: expected integers, got {raw!r}") from None
        if n is None:
            if len(values) != 1:
                raise ParseError(f"line {lineno}: first line must be the vertex count")
            n = values[0]
        else:
            edges.append(values)
    if n is None:
        raise ParseError("empty input: missing vertex count line")
    try:
        return Hypergraph(n, edges)
    except HypergraphError as exc:
        raise ParseError(str(exc)) from None


def to_json(h: Hypergraph) -> str:
    """Canonical JSON serialization."""
    return json.dumps({"n": h.n, "edges": [list(e) for e in h.edges]})


def from_json(text: str) -> Hypergraph:
    """Parse the JSON format."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ParseError('JSON object must have "n" and "edges" keys')
    try:
        return Hypergraph(obj["n"], obj["edges"])
    except (HypergraphError, TypeError) as exc:
        raise ParseError(str(exc)) from None


def read_file(path: str) -> Hypergraph:
    """Load a hypergraph, dispatching on the .json extension."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if str(path).endswith(".json"):
        return from_json(text)
    return from_text(text)


def write_file(h: Hypergraph, path: str) -> None:
    """Write a hypergraph, dispatching on the .json extension."""
    payload = to_json(h) + "\n" if str(path).endswith(".json") else to_text(h)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
