"""Hypergraph data model and structural operations.

Vertices are dense 0-based indices ``0..n-1``.  Edges are vertex sets of
size >= 2, stored as strictly increasing tuples, and the edge list is kept
in lexicographic order so that equal hypergraphs serialize identically.
Hypergraphs are immutable; every operation returns a new value.
"""

from __future__ import annotations

import json
from itertools import chain, combinations
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


def _canonical_edges(n: int, edges: Iterable[Iterable[int]]) -> list[Edge]:
    """``_canonical_edge`` of each edge, with numpy integers stored as int;
    bools and other non-integer vertices are refused."""
    try:
        canon = [_canonical_edge(n, e) for e in edges]
    except TypeError as exc:  # an edge is not iterable, or a vertex not comparable
        raise HypergraphError(f"edges must be iterables of integers: {exc}") from None
    # one type scan; the per-vertex path runs only when a non-int is present
    if set(map(type, chain.from_iterable(canon))) - {int}:
        for edge in canon:
            for v in edge:
                if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                    raise HypergraphError(f"edge {edge}: vertex {v!r} is not an integer")
        canon = [tuple(map(int, e)) for e in canon]
    return canon


class Hypergraph:
    """A simple finite hypergraph on vertices ``0..n-1``.

    Parameters
    ----------
    n : int
        Number of vertices.
    edges : iterable of iterables of int
        Edge list; each edge must have >= 2 distinct vertices below ``n``
        and no two edges may be equal as sets.

    This constructor validates all outside input.  Builders and edits whose
    edges are canonical by construction call :meth:`_trusted`, which needs a
    sorted tuple of distinct, strictly increasing, in-range edges of size >= 2.
    """

    __slots__ = ("n", "edges")

    n: int
    edges: tuple[Edge, ...]

    def __init__(self, n: int, edges: Iterable[Iterable[int]]):
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise HypergraphError(f"vertex count must be an integer, got {n!r}")
        n = int(n)
        if n < 0:
            raise HypergraphError(f"vertex count must be >= 0, got {n}")
        canon = _canonical_edges(n, edges)
        seen = set()
        for e in canon:
            if e in seen:
                raise DuplicateEdgeError(f"duplicate edge {e}")
            seen.add(e)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @classmethod
    def _trusted(cls, n: int, edges: tuple[Edge, ...]) -> Hypergraph:
        """Store ``edges``, canonical as the class docstring states, unchecked."""
        h = object.__new__(cls)
        object.__setattr__(h, "n", n)
        object.__setattr__(h, "edges", edges)
        return h

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
    return np.bincount(np.fromiter(chain.from_iterable(h.edges), np.int64), minlength=h.n)


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
    absent = tuple(c for c in combinations(range(h.n), k) if c not in present)
    return Hypergraph._trusted(h.n, absent)


def _edge_at(h: Hypergraph, edge_index: int) -> Edge:
    if not 0 <= edge_index < h.m:
        raise HypergraphError(f"edge index {edge_index} outside 0..{h.m - 1}")
    return h.edges[edge_index]


def shrink(h: Hypergraph, v: int, edge_index: int) -> Hypergraph:
    """Remove vertex v from edge ``edge_index``, leaving all other edges alone.

    The shrunk edge must keep size >= 2 and must not collide with an
    existing edge.  The result may be non-uniform.
    """
    e = _edge_at(h, edge_index)
    if v not in e:
        raise HypergraphError(f"vertex {v} is not in edge {e}")
    if len(e) <= 2:
        raise HypergraphError(f"shrinking edge {e} would leave fewer than 2 vertices")
    shrunk = tuple(w for w in e if w != v)
    if shrunk in h.edges:
        raise DuplicateEdgeError(f"shrinking {e} at {v} duplicates edge {shrunk}")
    new_edges = list(h.edges)
    new_edges[edge_index] = shrunk
    return Hypergraph._trusted(h.n, tuple(sorted(new_edges)))


def extend_edge(h: Hypergraph, edge_index: int, v: int) -> Hypergraph:
    """Add vertex v to edge ``edge_index`` (the inverse of :func:`shrink`)."""
    e = _edge_at(h, edge_index)
    if not 0 <= v < h.n:
        raise HypergraphError(f"vertex {v} outside 0..{h.n - 1}")
    if v in e:
        raise HypergraphError(f"vertex {v} already in edge {e}")
    extended = tuple(sorted(e + (v,)))
    if extended in h.edges:
        raise DuplicateEdgeError(f"extending {e} by {v} duplicates edge {extended}")
    new_edges = list(h.edges)
    new_edges[edge_index] = extended
    return Hypergraph._trusted(h.n, tuple(sorted(new_edges)))


def add_edge(h: Hypergraph, e: Iterable[int]) -> Hypergraph:
    """Insert a new edge at its canonical position."""
    (edge,) = _canonical_edges(h.n, [e])
    if edge in h.edges:
        raise DuplicateEdgeError(f"duplicate edge {edge}")
    return Hypergraph._trusted(h.n, tuple(sorted(h.edges + (edge,))))


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
    dist = [[-1] * h.n for _ in range(h.n)]
    for src, row in enumerate(dist):
        row[src] = 0
        frontier = [src]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for x in frontier:
                for y in nbrs[x]:
                    if row[y] < 0:
                        row[y] = d
                        nxt.append(y)
            frontier = nxt
    return np.array(dist, dtype=np.int64).reshape(h.n, h.n)


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
    return int(dist.max(initial=0))


# --- file formats ----------------------------------------------------------


def to_text(h: Hypergraph) -> str:
    """Canonical text serialization."""
    lines = [str(h.n)]
    lines += [" ".join(map(str, e)) for e in h.edges]
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Hypergraph:
    """Parse the text format, naming the offending line on errors.  Lines
    end at "\n" alone, and a line that is not a '#' comment holds vertices
    in printable ASCII separated by spaces or tabs."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip(" \t")
        if not line or line.startswith("#"):
            continue
        try:
            # int() reads "1_0" and every script's digits, and str.split()
            # also breaks at the control characters \x0b, \x0c and \x1c-\x1f
            if not line.isascii() or "_" in line or not line.replace("\t", " ").isprintable():
                raise ValueError
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
    n, edges = obj["n"], obj["edges"]
    # json.loads gives int only for integer literals; true/false are bool
    if type(n) is not int:
        raise ParseError(f'"n" must be an integer, got {json.dumps(n)}')
    if type(edges) is not list or any(type(e) is not list for e in edges):
        raise ParseError('"edges" must be a list of vertex lists')
    try:
        return Hypergraph(n, edges)
    except HypergraphError as exc:
        # the constructor refuses each vertex that is not an int; the first
        # in file order is named as the file writes it, before any other fault
        for edge, v in ((e, v) for e in edges for v in e if type(v) is not int):
            raise ParseError(f"edge {json.dumps(edge)}: vertex {json.dumps(v)} is not an integer") from None
        raise ParseError(str(exc)) from None


def read_file(path: str) -> Hypergraph:
    """Load a hypergraph, dispatching on the .json extension."""
    with open(path, "rb", buffering=0) as fh:
        try:
            text = fh.read().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(str(exc)) from None
    text = text.replace("\r\n", "\n").replace("\r", "\n")  # the newlines of a text-mode read
    if str(path).endswith(".json"):
        return from_json(text)
    return from_text(text)


def write_file(h: Hypergraph, path: str) -> None:
    """Write a hypergraph, dispatching on the .json extension."""
    payload = to_json(h) + "\n" if str(path).endswith(".json") else to_text(h)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
