"""Immutable simple undirected graphs with dense integer vertex ids.

Vertices are the integers 0..n-1 and adjacency is stored as a sorted tuple
of neighbour ids per vertex.  Graphs never change after construction, so
derived structures may safely keep references to them.  Independent sets
and other vertex collections are passed around as sorted tuples
(``VertexSet``), which are canonical and usable as mapping keys.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import FormatError, InputError, SizeError

VertexSet = tuple[int, ...]

# The most vertices an edge-list header may declare; also the largest size
# cap `constructions.necessary_construction` takes, so every graph
# `construct` writes reads back.
MAX_VERTICES = 1 << 19


def vertex_set(members: Iterable[int]) -> VertexSet:
    """Canonicalise an iterable of vertex ids into a sorted tuple."""
    return tuple(sorted(set(members)))


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``adjacency[v]`` is the sorted tuple of neighbours of ``v``.  The
    constructor validates symmetry, absence of loops and duplicates, and
    that every id lies in range.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0:
            raise InputError("vertex count must be non-negative")
        if len(self.adjacency) != self.n:
            raise InputError("adjacency length does not match vertex count")
        neighbour_sets = []
        for v, nbrs in enumerate(self.adjacency):
            prev = -1
            for u in nbrs:
                if not 0 <= u < self.n:
                    raise InputError(f"neighbour id {u} of vertex {v} out of range")
                if u == v:
                    raise InputError(f"loop at vertex {v}")
                if u <= prev:
                    raise InputError(f"adjacency of vertex {v} not sorted or has duplicates")
                prev = u
            neighbour_sets.append(set(nbrs))
        for v, nbrs in enumerate(self.adjacency):
            for u in nbrs:
                if v not in neighbour_sets[u]:
                    raise InputError(f"edge {v}-{u} is not symmetric")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list, rejecting loops and duplicates.

        The adjacency built here is sorted, symmetric, in range and
        loop-free by construction, so `_unchecked_graph` wraps it without
        the constructor's checks.
        """
        if n < 0:
            raise InputError("vertex count must be non-negative")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise InputError(f"loop at vertex {u}")
            if v in adj[u]:
                raise InputError(f"duplicate edge ({u},{v})")
            adj[u].add(v)
            adj[v].add(u)
        return _unchecked_graph(n, tuple(tuple(sorted(s)) for s in adj))

    @cached_property
    def m(self) -> int:
        """Number of edges."""
        return sum(len(a) for a in self.adjacency) // 2

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        """Neighbourhoods as bitmasks, for set-enumeration kernels."""
        masks = []
        for nbrs in self.adjacency:
            m = 0
            for u in nbrs:
                m |= 1 << u
            masks.append(m)
        return tuple(masks)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges (u, v) with u < v in lexicographic order."""
        for u in range(self.n):
            for v in self.adjacency[u]:
                if v > u:
                    yield (u, v)


def _unchecked_graph(n: int, adjacency: tuple[tuple[int, ...], ...]) -> Graph:
    """A Graph on an adjacency its caller built valid, without the checks."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adjacency", adjacency)
    return g


def is_triangle_free(g: Graph) -> bool:
    """True iff no three vertices are pairwise adjacent.

    O(n + sum of deg^2) time and O(max deg) memory: each edge's endpoints
    are checked for a common neighbour against a set of one of them.
    """
    for u, nbrs in enumerate(g.adjacency):
        nu = set(nbrs)
        for v in nbrs:
            if v > u and not nu.isdisjoint(g.adjacency[v]):
                return False
    return True


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on ``keep`` plus the relabelling map old id -> new id.

    New ids are assigned in increasing order of the old ids, so
    ``sorted(keep)[new_id]`` recovers the original vertex.  Only ``keep``
    is checked; `_unchecked_graph` wraps the valid adjacency read off ``g``.
    """
    kept = vertex_set(keep)
    for v in kept:
        if not 0 <= v < g.n:
            raise InputError(f"vertex id {v} out of range")
    relabel = {old: new for new, old in enumerate(kept)}
    adj = tuple(
        tuple(relabel[u] for u in g.adjacency[old] if u in relabel)
        for old in kept
    )
    return _unchecked_graph(len(kept), adj), relabel


# ---------------------------------------------------------------------------
# Generators.  All are deterministic for fixed inputs.

def edgeless(n: int) -> Graph:
    return Graph.from_edges(n, [])


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star(k: int) -> Graph:
    """The star K_{1,k}: centre 0 joined to leaves 1..k."""
    if k < 0:
        raise InputError("star needs a non-negative leaf count")
    return Graph.from_edges(k + 1, [(0, i) for i in range(1, k + 1)])


def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 0 or b < 0:
        raise InputError("part sizes must be non-negative")
    return Graph.from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def petersen() -> Graph:
    """Petersen graph: outer 5-cycle 0..4, inner pentagram 5..9, spokes."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def random_triangle_free(n: int, p: float, seed: int) -> Graph:
    """Binomial graph G(n, p) with triangles destroyed deterministically.

    Triples are scanned in lexicographic order and each triangle found has
    its lowest-indexed edge removed, so the output is reproducible and
    always triangle-free.
    """
    if n < 0:
        raise InputError("vertex count must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise InputError("edge probability must lie in [0, 1]")
    rng = random.Random(seed)
    adj = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    for u in range(n):
        for v in range(u + 1, n):
            if v not in adj[u]:
                continue
            for w in range(v + 1, n):
                if w in adj[u] and w in adj[v]:
                    # still a triangle at scan time: drop the (u, v) edge
                    adj[u].discard(v)
                    adj[v].discard(u)
                    break
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in adj[u] if v > u])


# ---------------------------------------------------------------------------
# Edge-list text format: header "n m", then m lines "u v" with u < v.
# Lines starting with '#' are comments.

def parse_edge_list(text: str) -> Graph:
    rows = [ln.strip() for ln in text.splitlines()]
    rows = [ln for ln in rows if ln and not ln.startswith("#")]
    if not rows:
        raise FormatError("empty edge-list input")
    head = rows[0].split()
    if len(head) != 2:
        raise FormatError(f"bad header line {rows[0]!r}, expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError(f"bad header line {rows[0]!r}") from exc
    if n > MAX_VERTICES:
        raise SizeError(f"edge list declares {n} vertices, above the limit {MAX_VERTICES}")
    if len(rows) - 1 != m:
        raise FormatError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for ln in rows[1:]:
        toks = ln.split()
        if len(toks) != 2:
            raise FormatError(f"bad edge line {ln!r}")
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError as exc:
            raise FormatError(f"bad edge line {ln!r}") from exc
        edges.append((u, v))
    try:
        return Graph.from_edges(n, edges)
    except InputError as exc:
        raise FormatError(f"invalid edge list: {exc}") from exc


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def read_edge_list(filename) -> Graph:
    """`parse_edge_list` of a UTF-8 file; FormatError when it is not UTF-8,
    or when no file can have the name (a null byte, a lone surrogate)."""
    try:
        fh = open(filename, "r", encoding="utf-8")
    except ValueError as exc:  # what open raises for such a name, not an OSError
        raise FormatError(f"no file can be named {filename!r}: {exc}") from exc
    with fh:
        try:
            return parse_edge_list(fh.read())
        except UnicodeDecodeError as exc:
            raise FormatError(f"edge list {filename} is not UTF-8: {exc}") from exc


def write_edge_list(g: Graph, filename) -> None:
    with open(filename, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g))
