"""Shared test machinery: brute-force oracles and instance generators.

The oracles here deliberately avoid the package's exact kernels so they
can serve as independent references: independent sets come from itertools
subsets or from the package's set enumerator (itself checked against
itertools), triangles from a full triple scan, neighbourhoods from networkx.
The `reference_*` functions are the implementations that the
independence-polynomial kernel, the split table's loop, the once-per-run
hard-core oracle, the counter-based Glauber sampler, the two-phase
colouring's phase 1, the
greedy's scores on a built induced subgraph, the copying colouring
validator, fact (b)'s inclusion-exclusion and the per-vertex occupancy
queries replaced; they read neighbourhoods from networkx, not from the
package's adjacency.  The dp-solve references build every node's cross
partners (`star_adjacency`), truncate a cover afresh for each use and
rescan the edges after every resample.  Stars, paths and cycles have
exact occupancies in closed form, for graphs too long to enumerate.
"""

from __future__ import annotations

import decimal
import io
import itertools
import math
import random
from fractions import Fraction

import networkx as nx
from hypothesis import strategies as st

from hcchroma import Graph
from hcchroma.graph import induced_subgraph, random_triangle_free
from hcchroma.dpcolor import (
    Cover,
    CoverReport,
    HypothesisReport,
    LllReport,
    TwoPhaseResult,
    _normalise_ell,
    finishing_blow_hypothesis,
    from_list_assignment,
    verify_dp_colouring,
)
from hcchroma.errors import HypothesisError, InputError, SizeError
from hcchroma.fractional import SATURATE_TOL, Interval, SetDistribution, ValidationReport
from hcchroma import hardcore
from hcchroma.hardcore import FactCheckReport, OccupancyStats, independent_set_masks


def mask_to_vertex_set(mask: int) -> tuple[int, ...]:
    """The sorted members of a vertex bitmask."""
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length() - 1)
    return tuple(out)


def json_text(col) -> str:
    """The text ``col.write_json`` writes, as one string."""
    buf = io.StringIO()
    col.write_json(buf)
    return buf.getvalue()


def to_nx(g: Graph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n))
    G.add_edges_from(g.edges())
    return G


def reference_neighbour_occupancy(g: Graph, occupancy) -> dict:
    """``{1: row}``, row[v] the sum of ``occupancy`` over v's neighbours
    in networkx's copy of ``g``.

    Fractions are summed exactly, floats with fsum.
    """
    G = to_nx(g)
    exact = bool(occupancy) and isinstance(occupancy[0], Fraction)
    row = []
    for v in range(g.n):
        terms = [occupancy[u] for u in sorted(G.neighbors(v))]
        row.append(sum(terms, Fraction(0)) if exact else math.fsum(terms))
    return {1: tuple(row)}


def reference_oracle_scores(g: Graph, live, occ, weights) -> list[float]:
    """The greedy's per-vertex scores on H = g[live], built as a graph.

    Builds H with `induced_subgraph`, reads each vertex's neighbours in H
    from networkx and scores it in H's ids as alpha_v * occupancy plus, when
    it has a neighbour in H, beta_v * the fsum of their occupancies.
    """
    h, _ = induced_subgraph(g, live)
    H = to_nx(h)
    occ_h = [occ[v] for v in live]
    scores = []
    for i, v in enumerate(live):
        a, b = weights.alpha[v]
        s = a * occ_h[i]
        nbrs = sorted(H.neighbors(i))
        if nbrs:
            s += b * math.fsum(occ_h[u] for u in nbrs)
        scores.append(s)
    return scores


def brute_independent_sets(g: Graph) -> list[tuple[int, ...]]:
    """Every independent set, via itertools subsets and pairwise checks."""
    adj = [set(g.adjacency[v]) for v in range(g.n)]
    out = []
    for r in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), r):
            if all(v not in adj[u] for u, v in itertools.combinations(combo, 2)):
                out.append(combo)
    return out


def brute_occupancy(g: Graph, lam) -> tuple[object, list]:
    """Partition function and per-vertex occupancy from the brute sets."""
    lam = Fraction(lam)
    z = Fraction(0)
    occ = [Fraction(0)] * g.n
    for s in brute_independent_sets(g):
        w = lam ** len(s)
        z += w
        for v in s:
            occ[v] += w
    return z, [o / z for o in occ]


def brute_has_triangle(g: Graph) -> bool:
    adj = [set(g.adjacency[v]) for v in range(g.n)]
    for u, v, w in itertools.combinations(range(g.n), 3):
        if v in adj[u] and w in adj[u] and w in adj[v]:
            return True
    return False


@st.composite
def triangle_free_graphs(draw, max_n=14):
    """Triangle-free graphs on 0..max_n vertices; up to three of the
    highest-numbered vertices are kept isolated."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    isolated = draw(st.integers(min_value=0, max_value=min(n, 3)))
    core = random_triangle_free(
        n - isolated,
        draw(st.floats(min_value=0.0, max_value=0.6)),
        draw(st.integers(min_value=0, max_value=10_000)),
    )
    return Graph.from_edges(n, list(core.edges()))


@st.composite
def several_component_graphs(draw, max_n=40):
    """Disjoint unions of two to six random triangle-free graphs plus up to
    four isolated vertices, at most ``max_n`` vertices in all, with the
    vertices shuffled so that components interleave in label order."""
    sizes = draw(st.lists(st.integers(min_value=1, max_value=12), min_size=2, max_size=6))
    p = draw(st.floats(min_value=0.0, max_value=0.5))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    edges, n = [], 0
    for i, k in enumerate(sizes):
        k = min(k, max_n - n)
        part = random_triangle_free(k, p, seed + i)
        edges += [(n + u, n + v) for u, v in part.edges()]
        n += k
    n = min(max_n, n + draw(st.integers(min_value=0, max_value=4)))
    label = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(label[u], label[v]) for u, v in edges])


@st.composite
def graphs(draw, max_n=12):
    """Any simple graph on 0..max_n vertices, triangles allowed."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [e for e, k in zip(pairs, keep) if k])


PERMUTATION_CAP = 120  # class-respecting orderings tried per canonical form


def _refined_colours(g: Graph) -> tuple[list[int], tuple]:
    """Colour refinement from degrees until the class count stops growing.

    A colour is the rank of (own colour, sorted neighbour colours) among
    all such signatures, so the colours, and the certificate of final
    signatures returned with them, are isomorphism invariants.
    """
    colour = [len(nbrs) for nbrs in g.adjacency]
    classes = len(set(colour))
    while True:
        sig = [(colour[v], tuple(sorted(colour[u] for u in nbrs)))
               for v, nbrs in enumerate(g.adjacency)]
        rank = {key: i for i, key in enumerate(sorted(set(sig)))}
        colour = [rank[key] for key in sig]
        if len(rank) == classes:
            return colour, tuple(sorted(sig))
        classes = len(rank)


def _isomorphism_key(g: Graph) -> tuple[tuple, tuple | None]:
    """(certificate, canonical edge list), or (certificate, None).

    The canonical edge list is the least sorted edge list over every vertex
    order that lists the refined colour classes in colour order, so two
    graphs get the same one exactly when they are isomorphic.  When more
    than PERMUTATION_CAP such orders exist it is not computed.
    """
    colour, certificate = _refined_colours(g)
    cells: list[list[int]] = [[] for _ in range(max(colour, default=-1) + 1)]
    for v, c in enumerate(colour):
        cells[c].append(v)
    if math.prod(math.factorial(len(cell)) for cell in cells) > PERMUTATION_CAP:
        return certificate, None
    edges = list(g.edges())
    best = None
    for perms in itertools.product(*(itertools.permutations(cell) for cell in cells)):
        pos = [0] * g.n
        for i, v in enumerate(itertools.chain.from_iterable(perms)):
            pos[v] = i
        code = sorted((pos[u], pos[v]) if pos[u] < pos[v] else (pos[v], pos[u])
                      for u, v in edges)
        if best is None or code < best:
            best = code
    return certificate, tuple(best)


def connected_triangle_free_family(max_n: int) -> dict[int, list[Graph]]:
    """All connected triangle-free graphs up to isomorphism, by vertex count.

    Grows each graph by one vertex joined to a nonempty independent subset
    (every connected triangle-free graph arises this way from a smaller
    one) and keeps the first candidate of each isomorphism class: by
    canonical form where `_isomorphism_key` gives one, else by exact
    networkx isomorphism checks within the refinement certificate's bucket.
    """
    levels: dict[int, list[Graph]] = {1: [Graph.from_edges(1, [])]}
    for n in range(2, max_n + 1):
        canonical: set[tuple] = set()
        buckets: dict[tuple, list[nx.Graph]] = {}
        out: list[Graph] = []
        for parent in levels[n - 1]:
            parent_edges = list(parent.edges())
            for mask in independent_set_masks(parent):
                if mask == 0:
                    continue
                members = mask_to_vertex_set(mask)
                cand = Graph.from_edges(
                    n, parent_edges + [(u, n - 1) for u in members]
                )
                key = _isomorphism_key(cand)
                if key[1] is not None:
                    if key not in canonical:
                        canonical.add(key)
                        out.append(cand)
                    continue
                gnx = to_nx(cand)
                bucket = buckets.setdefault(key[0], [])
                if not any(nx.is_isomorphic(gnx, other) for other in bucket):
                    bucket.append(gnx)
                    out.append(cand)
        levels[n] = out
    return levels


def labelled_connected_triangle_free_count(n: int) -> int:
    """Isomorphism classes by brute force over all labelled graphs on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    reps: list[nx.Graph] = []
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        g = Graph.from_edges(n, edges)
        gnx = to_nx(g)
        if not nx.is_connected(gnx) if n > 0 else False:
            continue
        if n > 1 and not nx.is_connected(gnx):
            continue
        if brute_has_triangle(g):
            continue
        if not any(nx.is_isomorphic(gnx, r) for r in reps):
            reps.append(gnx)
    return len(reps)


def triangle_free_base(n: int, avg_degree: float, seed: int) -> Graph:
    p = min(1.0, avg_degree / max(1, n - 1))
    return random_triangle_free(n, p, seed)


def random_cover(
    n: int, avg_degree: float, list_size: int, max_star: int, seed: int
) -> Cover:
    """Random cover with lists of exactly ``list_size`` and deg* <= ``max_star``.

    Per base edge, up to three random matching pairs are added subject to
    per-node star-degree caps, so the finishing-blow hypothesis with
    ell = list_size holds whenever max_star <= list_size / 8.
    """
    g = triangle_free_base(n, avg_degree, seed)
    rng = random.Random(seed * 977 + 13)
    owner = tuple(u for u in range(n) for _ in range(list_size))
    lists = [tuple(range(u * list_size, (u + 1) * list_size)) for u in range(n)]
    capacity = [max_star] * (n * list_size)
    cross = set()
    for u, v in g.edges():
        used_u: set[int] = set()
        used_v: set[int] = set()
        for _ in range(rng.randint(1, max_star)):
            cands_u = [a for a in lists[u] if capacity[a] > 0 and a not in used_u]
            cands_v = [b for b in lists[v] if capacity[b] > 0 and b not in used_v]
            if not cands_u or not cands_v:
                break
            a = rng.choice(cands_u)
            b = rng.choice(cands_v)
            cross.add((a, b) if a < b else (b, a))
            capacity[a] -= 1
            capacity[b] -= 1
            used_u.add(a)
            used_v.add(b)
    return Cover(g, owner, frozenset(cross))


def random_list_instance(
    n: int, avg_degree: float, list_size: int, palette: int, seed: int
):
    """A list assignment meeting the finishing-blow hypothesis, via rejection.

    Draws ``list_size`` labels per vertex from a palette large enough that
    colour collisions between neighbours stay below list_size / 8, bumping
    the seed deterministically until the hypothesis check passes.
    """
    g = triangle_free_base(n, avg_degree, seed)
    attempt = 0
    while True:
        rng = random.Random(seed * 104729 + attempt)
        lists = [sorted(rng.sample(range(palette), list_size)) for _ in range(n)]
        cover, labels = from_list_assignment(g, lists)
        if finishing_blow_hypothesis(cover, list_size).ok:
            return g, lists, cover, labels
        attempt += 1
        if attempt > 200:
            raise RuntimeError("could not draw a hypothesis-satisfying instance")


def star_adjacency(c: Cover) -> tuple[tuple[int, ...], ...]:
    """Cross-edge partners per colour node, sorted."""
    out: list[list[int]] = [[] for _ in range(c.num_colour_nodes)]
    for a, b in c.cross_edges:
        out[a].append(b)
        out[b].append(a)
    return tuple(tuple(sorted(lst)) for lst in out)


def reference_validate_cover(c: Cover) -> CoverReport:
    """`validate_cover` in two passes, a set of partners per (node, list)."""
    violations = []
    base_adj = [set(nbrs) for nbrs in c.base.adjacency]
    for a, b in sorted(c.cross_edges):
        ua, ub = c.owner[a], c.owner[b]
        if ua == ub:
            violations.append(f"cross edge ({a},{b}) joins nodes of one list ({ua})")
        elif ub not in base_adj[ua]:
            violations.append(
                f"cross edge ({a},{b}) joins lists of non-adjacent vertices {ua},{ub}")
    partner_lists: dict[tuple[int, int], set[int]] = {}
    for a, b in sorted(c.cross_edges):
        ua, ub = c.owner[a], c.owner[b]
        if ua == ub:
            continue
        for node, other_owner, partner in ((a, ub, b), (b, ua, a)):
            seen = partner_lists.setdefault((node, other_owner), set())
            seen.add(partner)
            if len(seen) > 1:
                violations.append(
                    f"node {node} has {len(seen)} cross partners in the list of "
                    f"vertex {other_owner}; matching violated")
    return CoverReport(not violations, tuple(violations))


def reference_finishing_blow_hypothesis(c: Cover, ell) -> HypothesisReport:
    """`finishing_blow_hypothesis` read off the full partner table, node by node."""
    ell_v = _normalise_ell(c, ell)
    star = star_adjacency(c)
    violations = []
    max_star = 0
    min_list = min((len(l) for l in c.lists), default=0)
    for u in range(c.base.n):
        if ell_v[u] < 3:
            violations.append(f"ell({u}) = {ell_v[u]} < 3")
        if len(c.lists[u]) < ell_v[u]:
            violations.append(f"|L({u})| = {len(c.lists[u])} < ell({u}) = {ell_v[u]}")
        nbrs = c.base.adjacency[u]
        cap = min(ell_v[v] for v in nbrs) / 8.0 if nbrs else math.inf
        for node in c.lists[u]:
            d = len(star[node])
            max_star = max(max_star, d)
            if d > cap:
                violations.append(f"node {node} in L({u}) has star degree {d} > {cap}")
    return HypothesisReport(not violations, tuple(violations), max_star, min_list)


def _reference_restrict(c: Cover, base: Graph, base_map, keep: list[int]) -> Cover:
    new_id = {old: new for new, old in enumerate(keep)}
    owner = tuple(base_map[c.owner[old]] for old in keep)
    cross = frozenset(
        (new_id[a], new_id[b]) for a, b in c.cross_edges if a in new_id and b in new_id
    )
    return Cover(base, owner, cross)


def reference_truncate_lists(c: Cover, ell) -> tuple[Cover, tuple[int, ...]]:
    """A fresh truncation on every call: the first ell(u) nodes of each list."""
    ell_v = _normalise_ell(c, ell)
    keep: list[int] = []
    for u in range(c.base.n):
        if len(c.lists[u]) < ell_v[u]:
            raise InputError(f"list of vertex {u} shorter than ell({u})")
        keep.extend(c.lists[u][: ell_v[u]])
    keep.sort()
    return _reference_restrict(c, c.base, range(c.base.n), keep), tuple(keep)


def reference_lll_certify(c: Cover, ell) -> LllReport:
    """`lll_certify` edge by edge: weights, sums and slacks per cross edge,
    on a truncation of its own."""
    if not reference_finishing_blow_hypothesis(c, ell).ok:
        raise HypothesisError("finishing-blow hypothesis fails")
    ell_v = _normalise_ell(c, ell)
    trunc, _ = reference_truncate_lists(c, ell_v)
    edges = sorted(trunc.cross_edges)
    if not edges:
        return LllReport(True, None, None, 0.0, 0)
    x = {(a, b): 3.0 / (ell_v[trunc.owner[a]] * ell_v[trunc.owner[b]]) for a, b in edges}
    vertex_sum = [0.0] * trunc.base.n
    vertex_logsum = [0.0] * trunc.base.n
    pair_sum: dict[tuple[int, int], float] = {}
    pair_logsum: dict[tuple[int, int], float] = {}
    for e in edges:
        ua, ub = trunc.owner[e[0]], trunc.owner[e[1]]
        lg = math.log1p(-x[e])
        vertex_sum[ua] += x[e]
        vertex_sum[ub] += x[e]
        vertex_logsum[ua] += lg
        vertex_logsum[ub] += lg
        key = (min(ua, ub), max(ua, ub))
        pair_sum[key] = pair_sum.get(key, 0.0) + x[e]
        pair_logsum[key] = pair_logsum.get(key, 0.0) + lg
    proof_slack = glll_slack = math.inf
    max_x = 0.0
    certified = True
    for e in edges:
        ua, ub = trunc.owner[e[0]], trunc.owner[e[1]]
        xe = x[e]
        max_x = max(max_x, xe)
        if xe >= 0.5:
            certified = False
        key = (min(ua, ub), max(ua, ub))
        prob = 1.0 / (ell_v[ua] * ell_v[ub])
        dep_sum = vertex_sum[ua] + vertex_sum[ub] - pair_sum[key]
        proof_slack = min(proof_slack, xe * math.exp(-1.4 * dep_sum) - prob)
        dep_log = vertex_logsum[ua] + vertex_logsum[ub] - pair_logsum[key]
        glll_slack = min(glll_slack, xe * math.exp(dep_log - math.log1p(-xe)) - prob)
    certified = certified and proof_slack >= 0.0
    return LllReport(certified, proof_slack, glll_slack, max_x, len(edges))


def reference_solve(c: Cover, seed: int = 0, max_resamples: int = 10**6, ell=None):
    """Moser-Tardos resampling that rescans the sorted edges for the first
    violated one after every resample, on a truncation of its own."""
    node_map = None
    work = c
    if ell is not None:
        work, node_map = reference_truncate_lists(c, ell)
    for u in range(work.base.n):
        if not work.lists[u]:
            raise InputError(f"vertex {u} has an empty colour list")
    rng = random.Random(seed)
    choice = {u: rng.choice(work.lists[u]) for u in range(work.base.n)}
    edges = sorted(work.cross_edges)
    resamples = 0
    while True:
        chosen = set(choice.values())
        violated = next((e for e in edges if e[0] in chosen and e[1] in chosen), None)
        if violated is None:
            break
        resamples += 1
        if resamples > max_resamples:
            raise SizeError(f"gave up after {max_resamples} resamples")
        for node in violated:
            u = work.owner[node]
            choice[u] = rng.choice(work.lists[u])
    if node_map is not None:
        choice = {u: node_map[node] for u, node in choice.items()}
    assert verify_dp_colouring(c, choice)[0]
    return choice


def reference_residual_cover(c: Cover, chosen) -> tuple[Cover, tuple[int, ...]]:
    """The residual cover with its banned nodes read off the partner table."""
    star = star_adjacency(c)
    banned = set(chosen.values())
    for node in chosen.values():
        banned.update(star[node])
    sub_base, base_map = induced_subgraph(c.base, [u for u in range(c.base.n) if u not in chosen])
    keep = [
        node for node in range(c.num_colour_nodes)
        if c.owner[node] not in chosen and node not in banned
    ]
    return _reference_restrict(c, sub_base, base_map, keep), tuple(keep)


def reference_two_phase_colour(
    c: Cover, ell, rounds: int = 10, seed: int = 0, max_resamples: int = 10**6
) -> TwoPhaseResult:
    """`two_phase_colour` composed of the references above."""
    ell_v = _normalise_ell(c, ell)
    diagnostics: dict = {}
    for attempt in range(rounds):
        chosen = reference_random_partial(c, random.Random(seed * 1_000_003 + attempt))
        residual, node_map = reference_residual_cover(c, chosen)
        remaining = [u for u in range(c.base.n) if u not in chosen]
        ell_res = [ell_v[u] for u in remaining]
        report = reference_finishing_blow_hypothesis(residual, ell_res)
        diagnostics = {
            "attempt": attempt,
            "phase1_coloured": len(chosen),
            "residual_min_list": report.min_list_size,
            "residual_max_star": report.max_star_degree,
            "hypothesis_ok": report.ok,
            "violations": list(report.violations[:5]),
        }
        sub_choice = None
        if report.ok:
            sub_choice = reference_solve(
                residual, seed=seed * 7 + attempt, max_resamples=max_resamples, ell=ell_res)
        elif all(residual.lists):
            try:
                sub_choice = reference_solve(
                    residual, seed=seed * 7 + attempt, max_resamples=max_resamples)
            except SizeError:
                sub_choice = None
        if sub_choice is not None:
            colouring = dict(chosen)
            for u_new, node_new in sub_choice.items():
                colouring[remaining[u_new]] = node_map[node_new]
            return TwoPhaseResult(colouring, attempt + 1, report.ok, diagnostics)
    return TwoPhaseResult(None, rounds, False, diagnostics)


def reference_random_partial(c: Cover, rng: random.Random) -> dict[int, int]:
    """Phase 1 of two-phase colouring as the partial-state loop ran it.

    Draws one node per non-empty list first, then keeps each draw in
    vertex order unless its vertex is coloured or one of its cross partners
    is among the chosen nodes, rebuilt per draw: `_random_partial` must
    return exactly this dict and consume the same random draws.
    """
    draws = [rng.choice(lst) if lst else None for lst in c.lists]
    star = star_adjacency(c)
    chosen: dict[int, int] = {}
    for node in draws:
        if node is None:
            continue
        u = c.owner[node]
        chosen_nodes = set(chosen.values())
        if u in chosen or any(p in chosen_nodes for p in star[node]):
            continue
        chosen[u] = node
    return chosen


def reference_residual_lists(c: Cover, chosen) -> dict[int, tuple[int, ...]]:
    """Residual list of each uncoloured vertex, recomputed from scratch: its
    list minus the cross partners of every chosen node."""
    star = star_adjacency(c)
    banned = set()
    for node in chosen.values():
        banned.update(star[node])
    return {
        u: tuple(sorted(set(c.lists[u]) - banned))
        for u in range(c.base.n)
        if u not in chosen
    }


def glauber_empirical_occupancy(g, lam, chains, steps, seed0):
    """Empirical Pr(v in I) over independent seeded chains."""
    from hcchroma.hardcore import glauber_sample

    counts = [0] * g.n
    for t in range(chains):
        for v in glauber_sample(g, lam, steps, seed0 + t):
            counts[v] += 1
    return [c / chains for c in counts]


def reference_glauber_sample(g: Graph, lam: float, steps: int, seed: int):
    """Glauber dynamics on one bitmask state, drawing each vertex with
    ``randrange(n)`` and testing ``adj[v] & state`` every step: the sampler
    `glauber_sample` must return exactly this tuple."""
    if g.n == 0:
        return ()
    rng = random.Random(seed)
    adj = g.adjacency_masks
    p_occ = lam / (1.0 + lam)
    state = 0
    n = g.n
    for _ in range(steps):
        v = rng.randrange(n)
        bit = 1 << v
        if adj[v] & state:
            state &= ~bit
        elif rng.random() < p_occ:
            state |= bit
        else:
            state &= ~bit
    return mask_to_vertex_set(state)


def reference_edge_failures(g: Graph, col) -> list[str]:
    """Adjacent vertices sharing colour measure, by a per-edge two-pointer sweep.

    An independent reference for `validate_colouring`, which derives this
    invariant from part independence plus consecutive-interval
    disjointness.  Vertex ids outside 0..n-1 are ignored.
    """
    per_vertex = [[] for _ in range(g.n)]
    for s, ivs in col.parts.items():
        for v in s:
            if 0 <= v < g.n:
                per_vertex[v].extend(ivs)
    for ivs in per_vertex:
        ivs.sort()
    failures = []
    for u, v in g.edges():
        ius = per_vertex[u]
        ivs = per_vertex[v]
        i = j = 0
        while i < len(ius) and j < len(ivs):
            a1, b1 = ius[i]
            a2, b2 = ivs[j]
            if min(b1, b2) - max(a1, a2) > 1e-12:
                failures.append(f"adjacent vertices {u},{v} share colour measure")
                break
            if b1 <= b2:
                i += 1
            else:
                j += 1
    return failures


def reference_enumerate_stats(g: Graph, lam: float) -> OccupancyStats:
    """Occupancy statistics by enumerating every independent set.

    Weights are accumulated with Kahan compensation, so the result is
    accurate to a few ulps.
    """
    n = g.n
    pw = [1.0]
    for _ in range(n):
        pw.append(pw[-1] * lam)
    z_s = 0.0
    z_c = 0.0
    occ_s = [0.0] * n
    occ_c = [0.0] * n
    for mask in independent_set_masks(g):
        w = pw[mask.bit_count()]
        y = w - z_c
        t = z_s + y
        z_c = (t - z_s) - y
        z_s = t
        m = mask
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            y = w - occ_c[v]
            t = occ_s[v] + y
            occ_c[v] = (t - occ_s[v]) - y
            occ_s[v] = t
    occupancy = tuple(occ_s[v] / z_s for v in range(n))
    nbr = reference_neighbour_occupancy(g, occupancy)
    return OccupancyStats(float(lam), math.log(z_s), occupancy, nbr)


def reference_enumerate_stats_rational(g: Graph, lam) -> OccupancyStats:
    """Exact-rational occupancy statistics by enumerating every independent set."""
    lam = Fraction(lam)
    n = g.n
    z = Fraction(0)
    occ = [Fraction(0)] * n
    for mask in independent_set_masks(g):
        w = lam ** mask.bit_count()
        z += w
        for v in mask_to_vertex_set(mask):
            occ[v] += w
    occupancy = tuple(occ[v] / z for v in range(n))
    nbr = reference_neighbour_occupancy(g, occupancy)
    return OccupancyStats(float(lam), reference_log(z), occupancy, nbr)


def reference_log(z: Fraction) -> float:
    """log z for a Fraction z >= 1, accurate to a few ulps.

    Below 2 it sums the series of 2 atanh((z - 1) / (z + 1)) in 40-digit
    decimal arithmetic, which keeps the digits of a z near 1 that float(z)
    rounds away; above every float it takes the logarithms of numerator and
    denominator in decimal.
    """
    if z < 2:
        with decimal.localcontext(decimal.Context(prec=40)):
            t = (z - 1) / (z + 1)
            t = decimal.Decimal(t.numerator) / decimal.Decimal(t.denominator)
            total, power, k = decimal.Decimal(0), t, 1
            while power and abs(power) > abs(total) * decimal.Decimal("1e-40"):
                total += power / k
                power *= t * t
                k += 2
            return float(2 * total)
    try:
        return math.log(z)
    except OverflowError:  # Z exceeds every float: its logarithm in decimal
        with decimal.localcontext(decimal.Context(prec=40)):
            return float(decimal.Decimal(z.numerator).ln() - decimal.Decimal(z.denominator).ln())


def reference_conditional_fact_check(g: Graph, lam: float) -> FactCheckReport:
    """The two triangle-free conditional identities, by enumerating every set.

    For every independent set, adds its weight to the total and, when v is
    uncovered, to the uncovered weight of each vertex v, both by the count j
    of uncovered neighbours of v.  A count j whose total weight underflows to
    0.0 is skipped.
    """
    n = g.n
    adj = g.adjacency_masks
    pw = [1.0]
    for _ in range(n):
        pw.append(pw[-1] * lam)
    occupied_w = [0.0] * n
    uncovered_w = [0.0] * n
    total_by_j = [dict() for _ in range(n)]
    uncov_by_j = [dict() for _ in range(n)]
    full = (1 << n) - 1
    for mask in independent_set_masks(g):
        w = pw[mask.bit_count()]
        covered = 0
        for u in mask_to_vertex_set(mask):
            covered |= adj[u]
        uncovered_mask = full & ~covered
        for v in range(n):
            j = (adj[v] & uncovered_mask).bit_count()
            total_by_j[v][j] = total_by_j[v].get(j, 0.0) + w
            if uncovered_mask >> v & 1:
                uncovered_w[v] += w
                uncov_by_j[v][j] = uncov_by_j[v].get(j, 0.0) + w
                if mask >> v & 1:
                    occupied_w[v] += w
    p_occ = lam / (1.0 + lam)
    res1 = 0.0
    res2 = 0.0
    for v in range(n):
        res1 = max(res1, abs(occupied_w[v] / uncovered_w[v] - p_occ))
        for j, tw in total_by_j[v].items():
            if tw == 0.0:
                continue
            cond = uncov_by_j[v].get(j, 0.0) / tw
            res2 = max(res2, abs(cond - (1.0 + lam) ** (-j)))
    return FactCheckReport(float(lam), res1, res2)


def reference_fact_b_weights(g: Graph, v: int) -> tuple[list[int], list[int]]:
    """``(total, uncov)``: for j = 0..deg(v), the weights of the independent
    sets that leave exactly j neighbours of v uncovered, and of those that
    leave v uncovered too, as packed polynomials in fields of n + 1 bits.

    This is the inclusion-exclusion that `hardcore.conditional_fact_check`
    ran before it read the weights off one marked polynomial: all of a
    subset T of N(v) is uncovered exactly when I avoids N(T), which has
    weight Z(V - N(T)) (Z(V - N(T) - N(v)) with v uncovered too), so the
    weight of "exactly j uncovered" is the sum over k >= j of
    (-1)^(k-j) C(k, j) S_k, where S_k sums those weights over |T| = k.  It
    builds the 2^deg(v) covers N(T).  Z comes from a memoised recursion on
    the lowest vertex, not from the package's kernel.
    """
    n = g.n
    bits = n + 1
    adj = g.adjacency_masks
    full = (1 << n) - 1
    memo = {0: 1}
    d = g.degree(v)
    covers = [0]  # N(T) for every T subset of N(v), indexed by bitmask
    for u in g.adjacency[v]:
        covers += [c | adj[u] for c in covers]
    total_by_size = [0] * (d + 1)
    uncov_by_size = [0] * (d + 1)
    for t, cover in enumerate(covers):
        rest = full & ~cover
        total_by_size[t.bit_count()] += _lowest_vertex_z(memo, adj, bits, rest)
        uncov_by_size[t.bit_count()] += _lowest_vertex_z(memo, adj, bits, rest & ~adj[v])
    total, uncov = [], []
    for j in range(d + 1):
        signs = [(-1) ** (k - j) * math.comb(k, j) for k in range(j, d + 1)]
        total.append(sum(c * s for c, s in zip(signs, total_by_size[j:])))
        uncov.append(sum(c * s for c, s in zip(signs, uncov_by_size[j:])))
    return total, uncov


def reference_occurring_counts(g: Graph) -> set[int]:
    """The counts j >= 1 with A_j(1) > 0 at some vertex of the
    triangle-free graph g: one `uncovered_counts` pass for every vertex on
    one counting model, none skipped, as `hardcore._Exact.fact_check` ran
    them before it skipped the passes that could add no count."""
    counting = hardcore._Exact(g, 1)
    return {j for v in range(g.n) for j, a in enumerate(counting.uncovered_counts(v)) if j and a}


def reference_occupancy_counts(g: Graph) -> tuple[int, list[int]]:
    """``(total, counts)``: Z and, for every vertex v, x Z(V - N[v]), the
    weight of the independent sets that hold v, packed in fields of n + 1
    bits.  One query per vertex, as `hardcore.enumerate_stats` made before
    its reverse pass, with Z from a memoised recursion on the lowest vertex,
    not from the package's kernel."""
    n = g.n
    bits = n + 1
    adj = g.adjacency_masks
    full = (1 << n) - 1
    memo = {0: 1}
    total = _lowest_vertex_z(memo, adj, bits, full)
    counts = [
        _lowest_vertex_z(memo, adj, bits, full & ~adj[v] & ~(1 << v)) << bits for v in range(n)
    ]
    return total, counts


def packed_model(g: Graph, lam) -> hardcore._Exact:
    """The exact model of g at lam with every weight packed in fields of
    n + 1 bits, x = 2^(n + 1), even where lam would pick x = lam: built at a
    fugacity that is no integer, then pointed at lam, so that
    `hardcore._Exact.stats` reads every weight at lam off its fields."""
    model = hardcore._Exact(g, 0.5)
    model.lam = lam
    return model


def _lowest_vertex_z(memo: dict, adj, bits: int, s: int) -> int:
    """Z(G[S]) packed in fields of ``bits`` bits: Z(S - v) + x Z(S - N[v])
    for the lowest vertex v of S."""
    z = memo.get(s)
    if z is None:
        low = s & -s
        v = low.bit_length() - 1
        take = _lowest_vertex_z(memo, adj, bits, s & ~adj[v] & ~low)
        z = memo[s] = _lowest_vertex_z(memo, adj, bits, s ^ low) + (take << bits)
    return z


def reference_record(g: Graph) -> dict[int, int]:
    """`hardcore._record` as a recursion: the split rule applied to S,
    each part folded first unless the table holds it, then S recorded.
    The table must match the loop's, item for item and in order."""
    table: dict[int, int] = {}
    if g.n:
        _reference_fold(table, g.adjacency_masks, (1 << g.n) - 1)
    return table


def _reference_fold(table: dict, adj, s: int) -> None:
    comp = frontier = s & -s
    while frontier:
        b = frontier & -frontier
        frontier ^= b
        new = adj[b.bit_length() - 1] & s & ~comp
        comp |= new
        frontier |= new
    if comp != s:
        split, first, second = comp, comp, s ^ comp
    else:
        degree = lambda v: (adj[v] & s).bit_count()
        v = max(mask_to_vertex_set(s), key=lambda u: (degree(u), -u))
        split, first, second = ~v, s & ~(1 << v), s & ~adj[v] & ~(1 << v)
    for part in (first, second):
        if part and part not in table:
            _reference_fold(table, adj, part)
    table[s] = split


def star_occupancy(n: int, lam) -> list[Fraction]:
    """Exact Pr(v in I) on the star with n vertices, centre first: the
    centre is in I alone, weight lam, and a leaf with any subset of the
    other leaves."""
    lam = Fraction(lam)
    z = lam + (1 + lam) ** (n - 1)
    return [lam / z] + [lam * (1 + lam) ** (n - 2) / z] * (n - 1)


def chain_partitions(n: int, lam) -> list[Fraction]:
    """Z of the paths on 0..n vertices at ``lam``, exactly, by the transfer
    matrix [[1, lam], [1, 0]] over the states (free, occupied) of the last
    vertex."""
    lam = Fraction(lam)
    free, occupied = Fraction(1), Fraction(0)
    out = [free]
    for _ in range(n):
        free, occupied = free + occupied, lam * free
        out.append(free + occupied)
    return out


def path_occupancy(n: int, lam) -> list[Fraction]:
    """Exact Pr(v in I) on path(n): lam Z(left of N[v]) Z(right of N[v]) / Z."""
    lam = Fraction(lam)
    z = chain_partitions(n, lam)
    part = lambda k: z[max(k, 0)]
    return [lam * part(v - 1) * part(n - v - 2) / z[n] for v in range(n)]


def cycle_occupancy(n: int, lam) -> Fraction:
    """Exact Pr(v in I) on cycle(n), n >= 4, for every v: the sets that
    hold v weigh lam times Z of the path on the n - 3 vertices outside
    N[v], and those that do not Z of the path on the other n - 1."""
    lam = Fraction(lam)
    z = chain_partitions(n - 1, lam)
    held = lam * z[n - 3]
    return held / (z[n - 1] + held)


def reference_max_degree_sum_set(g: Graph) -> tuple[tuple[int, ...], int]:
    """First independent set of maximum degree sum in canonical enumeration order."""
    best, best_score = (), -1
    for mask in independent_set_masks(g):
        members = mask_to_vertex_set(mask)
        score = sum(g.degree(v) for v in members)
        if score > best_score:
            best, best_score = members, score
    return best, best_score


def reference_lowest_vertex_max_degree_sum_set(g: Graph) -> tuple[tuple[int, ...], int]:
    """`constructions._max_degree_sum_set` as it stood before it shared the
    exact kernel: M(S) branches on the lowest vertex v of S and never splits
    S into components, M(S) = max(M(S - v), deg(v) + M(S - N[v])), memoised
    by bitmask; the set is read back from the memo, taking v whenever that
    scores more, or as much and something was left to take without v."""
    memo = {0: 0}
    s = (1 << g.n) - 1
    best = _lowest_vertex_best_score(memo, g, s)
    members = []
    while s:
        low = s & -s
        v = low.bit_length() - 1
        rest = s & ~g.adjacency_masks[v] & ~low
        skip = memo[s ^ low]
        take = g.degree(v) + memo[rest]
        if take > skip or take == skip > 0:
            members.append(v)
            s = rest
        else:
            s ^= low
    return tuple(members), best


def _lowest_vertex_best_score(memo: dict, g: Graph, s: int) -> int:
    score = memo.get(s)
    if score is None:
        low = s & -s
        v = low.bit_length() - 1
        rest = s & ~g.adjacency_masks[v] & ~low
        take = g.degree(v) + _lowest_vertex_best_score(memo, g, rest)
        score = memo[s] = max(_lowest_vertex_best_score(memo, g, s ^ low), take)
    return score


def reference_hard_core_oracle(lam: float):
    """Hard-core oracle that enumerates the live subgraph afresh every round.

    Builds H = g[live], lists H's independent sets in canonical order,
    weights each by lam^|I| from a repeated-multiplication power table,
    divides by the fsum and maps the sets back to g's vertex ids.
    """

    def oracle(g: Graph, live: tuple[int, ...]) -> SetDistribution:
        h, _ = induced_subgraph(g, live)
        masks = independent_set_masks(h)
        pw = [1.0]
        for _ in range(h.n):
            pw.append(pw[-1] * lam)
        weights = [pw[m.bit_count()] for m in masks]
        z = math.fsum(weights)
        sets = tuple(tuple(live[i] for i in mask_to_vertex_set(m)) for m in masks)
        return SetDistribution(sets, tuple(w / z for w in weights))

    return oracle


def reference_validate_colouring(g: Graph, col, bound) -> ValidationReport:
    """`validate_colouring` as it stood before it shared each part's
    interval-length list among the part's members and kept a running
    smallest and largest interval per vertex: one copied length per member
    per interval, and the lists ``lows``/``highs`` reduced by min and max.
    Its reports must equal the current validator's."""
    n = g.n
    if isinstance(bound, (int, float)):
        bounds = [float(bound)] * n
    else:
        bounds = [float(b) for b in bound]
        if len(bounds) != n:
            raise InputError("need one bound per vertex")
    if any(math.isnan(b) for b in bounds):
        raise InputError("bound must not be NaN")
    failures: list[str] = []
    if not math.isfinite(col.total):
        failures.append(f"total {col.total!r} is not finite")
    adj_masks = g.adjacency_masks
    flat: list[Interval] = []
    # per vertex: the interval lengths of its parts, and each part's
    # smallest and largest interval
    lengths: list[list[float]] = [[] for _ in range(n)]
    lows: list[list[Interval]] = [[] for _ in range(n)]
    highs: list[list[Interval]] = [[] for _ in range(n)]
    for s, ivs in col.parts.items():
        members = s
        mask = 0
        prev = -1
        independent = True
        for v in s:
            if not prev < v < n:
                failures.append(
                    f"part {s} is not a strictly increasing tuple of vertex ids "
                    f"in 0..{n - 1}"
                )
                members = ()
                break
            if adj_masks[v] & mask:
                independent = False
            mask |= 1 << v
            prev = v
        if members and not independent:
            failures.append(f"part {s} is not independent")
        for a, b in ivs:
            if not b > a:
                failures.append(f"degenerate interval [{a}, {b}) on part {s}")
        flat.extend(ivs)
        if members and ivs:
            part_lengths = [b - a for a, b in ivs]
            low = min(ivs)
            high = max(ivs)
            for v in members:
                lengths[v].extend(part_lengths)
                lows[v].append(low)
                highs[v].append(high)
    flat.sort()
    if flat:
        if abs(flat[0][0]) > 1e-9:
            failures.append(f"colouring does not start at 0 (starts {flat[0][0]!r})")
        for (a1, b1), (a2, b2) in zip(flat, flat[1:]):
            if a2 < b1 - 1e-12:
                failures.append(f"overlapping intervals [{a1},{b1}) and [{a2},{b2})")
            elif a2 > b1 + 1e-9:
                failures.append(f"gap between {b1!r} and {a2!r}")
        if abs(flat[-1][1] - col.total) > 1e-9:
            failures.append(
                f"intervals end at {flat[-1][1]!r}, not at total {col.total!r}"
            )
    elif col.total > 1e-9:
        failures.append("no intervals but positive total")
    measures = []
    slacks = []
    for v in range(n):
        mv = math.fsum(lengths[v])
        measures.append(mv)
        if mv < 1.0 - SATURATE_TOL:
            failures.append(f"vertex {v} has measure {mv!r} < 1")
        if lows[v] and min(lows[v])[0] < -1e-12:
            failures.append(f"vertex {v} coloured below 0")
        top = max(highs[v])[1] if highs[v] else 0.0
        slack = bounds[v] - top
        slacks.append(slack)
        if slack < -1e-9:
            failures.append(
                f"vertex {v} coloured up to {top!r}, beyond bound {bounds[v]!r}"
            )
    return ValidationReport(not failures, tuple(failures), tuple(measures), tuple(slacks))
