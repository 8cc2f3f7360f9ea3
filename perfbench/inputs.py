"""Seeded, stdlib-only input generators for the benchmark workloads.

Every generator takes a ``random.Random`` so that one workload seed fixes
every file a workload writes.  Graphs are plain bitmask adjacency lists;
nothing here imports ``hcchroma``, so the inputs do not depend on the code
being measured.
"""

from __future__ import annotations

import json
import os
import random

EDGE_P = 0.30
# Independent-set counts of triangle_free_graph(n, EDGE_P, rng), median over
# 400 draws.  Exact-mode cost grows with the number of independent sets,
# which varies fivefold between draws of one n, so a ladder graph is a
# draw within IS_COUNT_WINDOW of the median.
MEDIAN_IS_COUNT = {
    8: 62, 9: 91, 10: 139, 11: 204, 12: 300, 14: 632, 16: 1247, 18: 2587,
    20: 4960, 22: 9911, 25: 25373, 27: 49176,
}
IS_COUNT_WINDOW = 0.03
MAX_DRAWS = 20_000


def triangle_free_graph(n: int, p: float, rng: random.Random) -> list[int]:
    """Random triangle-free graph as bitmask adjacency.

    Pairs are visited in lexicographic order; each is joined with
    probability ``p`` unless the two ends already share a neighbour.
    """
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p and not adj[u] & adj[v]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def count_independent_sets(adj: list[int]) -> int:
    """Number of independent sets (empty set included), by the recurrence
    I(S) = I(S - v) + I(S - N[v]) with memoisation on the vertex mask."""
    memo: dict[int, int] = {0: 1}

    def count(s: int) -> int:
        r = memo.get(s)
        if r is None:
            v = s.bit_length() - 1
            rest = s & ~(1 << v)
            r = count(rest) + count(rest & ~adj[v])
            memo[s] = r
        return r

    return count((1 << len(adj)) - 1)


def ladder_graph(n: int, rng: random.Random) -> list[int]:
    """The ladder graph on n vertices, relabelled at random by ``rng``.

    The unlabelled graph is the first triangle-free G(n, EDGE_P) draw of a fixed
    generator whose independent-set count lies within IS_COUNT_WINDOW of
    the median for that n.  Even inside that window the exact-mode work
    (intervals of the greedy colouring) differs by 8% between draws, so
    the workload seed only relabels: the input files and outputs change
    with the seed, the amount of work does not.
    """
    family = random.Random(f"ladder:{n}:{EDGE_P}")
    target = MEDIAN_IS_COUNT[n]
    slack = max(2, round(IS_COUNT_WINDOW * target))
    for _ in range(MAX_DRAWS):
        adj = triangle_free_graph(n, EDGE_P, family)
        if abs(count_independent_sets(adj) - target) <= slack:
            return relabel(adj, rng)
    raise RuntimeError(f"no ladder graph for n={n} within {MAX_DRAWS} draws")


def relabel(adj: list[int], rng: random.Random) -> list[int]:
    """The same graph with vertex v renamed to perm[v] for a random perm."""
    perm = list(range(len(adj)))
    rng.shuffle(perm)
    out = [0] * len(adj)
    for v, nb in enumerate(adj):
        out[perm[v]] = sum(1 << perm[u] for u in _bits(nb))
    return out


def sparse_triangle_free_graph(n: int, avg_degree: float, rng: random.Random) -> list[set[int]]:
    """Random triangle-free graph with about ``n * avg_degree / 2`` edges.

    Random pairs are proposed and kept unless they repeat an edge or close
    a triangle; used for the large sampled-mode graphs and cover bases.
    """
    adj: list[set[int]] = [set() for _ in range(n)]
    want = int(n * avg_degree / 2)
    m = 0
    while m < want:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v or v in adj[u] or adj[u] & adj[v]:
            continue
        adj[u].add(v)
        adj[v].add(u)
        m += 1
    return adj


def edges_of(adj) -> list[tuple[int, int]]:
    """Edges (u, v) with u < v of a bitmask or set adjacency, sorted."""
    out = []
    for u, nb in enumerate(adj):
        vs = nb if isinstance(nb, set) else _bits(nb)
        out.extend((u, v) for v in vs if v > u)
    out.sort()
    return out


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def write_edge_list(adj, path: str) -> None:
    """Write the ``n m`` header plus one ``u v`` line per edge."""
    edges = edges_of(adj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(adj)} {len(edges)}\n")
        fh.writelines(f"{u} {v}\n" for u, v in edges)


def general_cover(
    adj: list[set[int]], list_size: int, max_star: int, rng: random.Random
) -> tuple[list[int], list[tuple[int, int]]]:
    """Correspondence cover in general form: ``owner`` and ``cross_edges``.

    Vertex u owns nodes ``u * list_size .. (u + 1) * list_size - 1``.  Each
    base edge gets a random partial matching between the two lists, built
    only from nodes with fewer than ``max_star`` cross edges, so every
    node's star degree stays at most ``max_star``.
    """
    n = len(adj)
    owner = [u for u in range(n) for _ in range(list_size)]
    star = [0] * (n * list_size)
    cross = []
    for u, v in edges_of(adj):
        free_u = [c for c in range(u * list_size, (u + 1) * list_size) if star[c] < max_star]
        free_v = [c for c in range(v * list_size, (v + 1) * list_size) if star[c] < max_star]
        k = min(rng.randint(2, 8), len(free_u), len(free_v))
        for a, b in zip(rng.sample(free_u, k), rng.sample(free_v, k)):
            star[a] += 1
            star[b] += 1
            cross.append((a, b) if a < b else (b, a))
    cross.sort()
    return owner, cross


def list_cover(
    adj: list[set[int]], list_size: int, palette: int, max_star: int, rng: random.Random
) -> list[list[int]]:
    """List assignment whose colour nodes have star degree at most ``max_star``.

    The star degree of (v, c) is the number of neighbours of v whose list
    holds c.  Vertices are filled in order, and a colour is taken only if
    it keeps that count within ``max_star`` for v and for every neighbour
    already holding the colour.
    """
    n = len(adj)
    lists: list[set[int]] = [set() for _ in range(n)]
    holders: list[dict[int, int]] = [dict() for _ in range(n)]  # colour -> neighbours holding it
    for v in range(n):
        for c in rng.sample(range(palette), palette):
            if holders[v].get(c, 0) > max_star:
                continue
            if any(c in lists[u] and holders[u].get(c, 0) >= max_star for u in adj[v]):
                continue
            lists[v].add(c)
            if len(lists[v]) == list_size:
                break
        if len(lists[v]) < list_size:
            raise RuntimeError(f"palette {palette} too small for vertex {v}")
        for c in lists[v]:
            for u in adj[v]:
                holders[u][c] = holders[u].get(c, 0) + 1
    return [sorted(lst) for lst in lists]


def write_cover(path: str, graph_file: str, body: dict) -> None:
    """Write a cover file that references ``graph_file`` by its base name."""
    data = {"graph": os.path.basename(graph_file), **body}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
        fh.write("\n")
