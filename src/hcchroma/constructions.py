"""Lower-bound construction and semi-bipartite subgraph extraction.

`necessary_construction` builds, for a given minimum degree delta, a
bipartite graph together with a list assignment of per-vertex size at
least deg(v)/log(deg(v)) on one side and deg(v) on the other that admits
no proper list colouring.  The recursion multiplies the maximum degree by
a tower of exponentials per level, so only tiny (delta, level) pairs are
materialisable; non-colourability is verified by exhaustive backtracking
plus a structural cross-check.

`semi_bipartite_extract` finds an induced subgraph consisting of all edges
between an independent set A and its complement with large average degree:
below the cutoff the largest boundary-edge count exactly, from one (max, +)
pass over the hard-core module's exact split table, whose value holds the
set as well as its count; above it the best of several hard-core
samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import hardcore
from .errors import HypothesisError, InputError, InternalError, SizeError
from .graph import MAX_VERTICES, Graph, VertexSet, induced_subgraph, is_triangle_free

Colour = tuple[int, int]  # (index, level)

DEFAULT_SIZE_CAP = 500_000
DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class NecessaryInstance:
    """A level of the recursive non-colourable bipartite construction.

    ``lists[v]`` is the set of (index, level) colours available to v;
    ``copies`` holds the vertex blocks of the sub-instances merged at the
    last level (empty at level 0) and ``special_vertex`` is the vertex of
    maximum degree added by that step.
    """

    graph: Graph
    lists: tuple[frozenset, ...]
    level: int
    delta: int
    a_side: VertexSet
    b_side: VertexSet
    special_vertex: int
    copies: tuple[VertexSet, ...] = ()


@dataclass(frozen=True)
class PropertyReport:
    ok: bool
    failures: tuple[str, ...]


def check_recursive_properties(inst: NecessaryInstance) -> PropertyReport:
    """Check the four structural properties of a construction level.

    Bipartite across (A, B); every A-vertex of degree at least delta with
    the special vertex attaining the maximum; every B-vertex of degree
    level + 1; and list sizes at least deg/log(deg) on A (natural log) and
    deg on B.
    """
    g = inst.graph
    failures = []
    a_set, b_set = set(inst.a_side), set(inst.b_side)
    if a_set & b_set or len(a_set) + len(b_set) != g.n:
        failures.append("A and B do not partition the vertices")
    for u, v in g.edges():
        if (u in a_set) == (v in a_set):
            failures.append(f"edge {u}-{v} does not cross the bipartition")
    max_deg = max((g.degree(v) for v in inst.a_side), default=0)
    for v in inst.a_side:
        if g.degree(v) < inst.delta:
            failures.append(f"A-vertex {v} has degree {g.degree(v)} < {inst.delta}")
    if inst.a_side and g.degree(inst.special_vertex) != max_deg:
        failures.append("special vertex does not attain the maximum A-degree")
    for v in inst.b_side:
        if g.degree(v) != inst.level + 1:
            failures.append(
                f"B-vertex {v} has degree {g.degree(v)}, expected {inst.level + 1}"
            )
    for v in inst.a_side:
        d = g.degree(v)
        need = d / math.log(d) if d > 1 else 1
        if len(inst.lists[v]) < need:
            failures.append(
                f"A-vertex {v}: list size {len(inst.lists[v])} < deg/log deg = {need}"
            )
    for v in inst.b_side:
        if len(inst.lists[v]) < g.degree(v):
            failures.append(
                f"B-vertex {v}: list size {len(inst.lists[v])} < degree {g.degree(v)}"
            )
    return PropertyReport(not failures, tuple(failures))


def _check_limit(name: str, value: int) -> None:
    if value < 0:
        raise InputError(f"{name} must be at least 0, got {value}")


def necessary_construction(
    delta: int, level: int, size_cap: int = DEFAULT_SIZE_CAP
) -> NecessaryInstance:
    """Build the recursive non-colourable instance at the given level.

    Level 0 is the star K_{1,delta} whose centre lists all delta colours
    and whose leaves each hold the single clashing colour.  Each later
    level takes ceil(exp(t)/t) copies of the previous one (t the running
    tower value), joins a new vertex to every B-vertex, gives it the list
    of copy indices, and appends the copy index to every B-list in that
    copy.  The copy count is a ceiling of the real tower ratio; the
    structural properties are re-checked on the output rather than assumed
    from the closed form.  ``size_cap`` bounds every level's vertex count
    and lies in 0..`graph.MAX_VERTICES`, so the instance's edge list reads
    back.
    """
    if delta < 3:
        raise InputError("delta must be at least 3 (smaller breaks the list bound)")
    if level < 0:
        raise InputError("level must be non-negative")
    if level > delta - 1:
        raise InputError("level must be at most delta - 1")
    _check_limit("size_cap", size_cap)
    if size_cap > MAX_VERTICES:
        raise InputError(f"size_cap must be at most {MAX_VERTICES}, got {size_cap}")
    if delta + 1 > size_cap:
        raise SizeError(f"level 0 needs {delta + 1} vertices, above the cap {size_cap}")
    centre_list = frozenset((i, 0) for i in range(1, delta + 1))
    lists: list[frozenset] = [centre_list] + [frozenset({(i, 0)}) for i in range(1, delta + 1)]
    inst = NecessaryInstance(
        graph=Graph.from_edges(delta + 1, [(0, i) for i in range(1, delta + 1)]),
        lists=tuple(lists),
        level=0,
        delta=delta,
        a_side=(0,),
        b_side=tuple(range(1, delta + 1)),
        special_vertex=0,
    )
    tower = float(delta)
    for lvl in range(1, level + 1):
        if tower > 30.0:
            raise SizeError(
                f"copy count exp({tower:.3g})/{tower:.3g} exceeds any materialisable size"
            )
        copies_needed = math.ceil(math.exp(tower) / tower)
        size = inst.graph.n
        new_n = copies_needed * size + 1
        if new_n > size_cap:
            raise SizeError(
                f"level {lvl} needs {new_n} vertices, above the cap {size_cap}"
            )
        # copy j is the previous level shifted by j * size; both sides stay sorted
        prev_edges = list(inst.graph.edges())
        prev_b = set(inst.b_side)
        edges: list[tuple[int, int]] = []
        new_lists: list[frozenset] = []
        a_side: list[int] = []
        b_side: list[int] = []
        blocks: list[VertexSet] = []
        for j in range(copies_needed):
            off = j * size
            blocks.append(tuple(range(off, off + size)))
            edges.extend((off + u, off + v) for u, v in prev_edges)
            copy_colour = (j + 1, lvl)
            for v in range(size):
                if v in prev_b:
                    new_lists.append(inst.lists[v] | {copy_colour})
                    b_side.append(off + v)
                else:
                    new_lists.append(inst.lists[v])
                    a_side.append(off + v)
        new_vertex = copies_needed * size
        edges.extend((b, new_vertex) for b in b_side)
        new_lists.append(frozenset((j + 1, lvl) for j in range(copies_needed)))
        a_side.append(new_vertex)
        inst = NecessaryInstance(
            graph=Graph.from_edges(new_n, edges),
            lists=tuple(new_lists),
            level=lvl,
            delta=delta,
            a_side=tuple(a_side),
            b_side=tuple(b_side),
            special_vertex=new_vertex,
            copies=tuple(blocks),
        )
        tower = math.exp(tower)
    report = check_recursive_properties(inst)
    if not report.ok:
        raise InternalError(
            "construction violates its own properties: " + "; ".join(report.failures)
        )
    return inst


def _list_colourable(g: Graph, lists, budget: int, counter: list[int]) -> bool:
    """Exhaustive backtracking with unit propagation; True iff colourable.
    SizeError when the search, one level per branch, passes the recursion limit."""
    domains = [set(l) for l in lists]
    forced = [v for v in range(g.n) if len(domains[v]) == 1]
    try:
        return _search(g, domains, [False] * g.n, g.n, forced, budget, counter)
    except RecursionError:
        raise SizeError(
            f"colourability search on a {g.n}-vertex graph recurses past the "
            f"interpreter's recursion limit"
        ) from None


def _search(g, domains, done, remaining, forced, budget, counter) -> bool:
    """One search node.  ``forced`` lists every unfixed vertex whose domain
    is a singleton: the initial ones at the root, and in a child the
    neighbours the branching colour shrank to one colour (after the
    parent's propagation no other unfixed vertex has a singleton domain,
    so no branching colour empties a domain).  A vertex enters ``forced``
    once, since a second discard would empty its one colour."""
    counter[0] += 1
    if counter[0] > budget:
        raise SizeError(f"colourability search exceeded budget {budget}")
    # unit propagation on singleton lists
    trail: list[tuple[int, object]] = []
    fixed: list[int] = []
    ok = True
    while forced and ok:
        v = forced.pop()
        colour = next(iter(domains[v]))
        done[v] = True
        fixed.append(v)
        remaining -= 1
        for u in g.adjacency[v]:
            if done[u]:
                continue
            if colour in domains[u]:
                domains[u].discard(colour)
                trail.append((u, colour))
                if not domains[u]:
                    ok = False
                    break
                if len(domains[u]) == 1:
                    forced.append(u)
    if ok:
        if remaining == 0:
            result = True
        else:
            # fail-first: smallest domain relative to degree
            v = min(
                (u for u in range(g.n) if not done[u]),
                key=lambda u: len(domains[u]) / max(1, g.degree(u)),
            )
            saved = domains[v]
            # the unfixed neighbours holding each colour of v, in adjacency
            # order; every branch restores the domains, so one pass serves all
            holders = {colour: [] for colour in saved}
            for u in g.adjacency[v]:
                if not done[u]:
                    for colour in domains[u] & saved:
                        holders[colour].append(u)
            result = False
            done[v] = True
            for colour in sorted(saved):
                domains[v] = {colour}
                sub_forced = []
                for u in holders[colour]:
                    domains[u].discard(colour)
                    if len(domains[u]) == 1:
                        sub_forced.append(u)
                if _search(g, domains, done, remaining - 1, sub_forced, budget, counter):
                    result = True
                for u in holders[colour]:
                    domains[u].add(colour)
                if result:
                    break
            domains[v] = saved
            done[v] = False
    else:
        result = False
    for u, col in trail:
        domains[u].add(col)
    for v in fixed:
        done[v] = False
    return result


def verify_construction(
    inst: NecessaryInstance, budget: int = DEFAULT_BUDGET
) -> tuple[bool, bool | None]:
    """Exhaustive verdict and structural cross-check, each computed once.

    Returns ``(not_colourable, structural)``: the first from exhaustive
    backtracking over the list assignment with unit propagation on
    singleton lists, the second from `structural_not_colourable` (None
    where it does not apply).  A structural refutation of an instance the
    search colours is an internal error.
    """
    _check_limit("budget", budget)
    counter = [0]
    colourable = _list_colourable(inst.graph, inst.lists, budget, counter)
    structural = structural_not_colourable(inst, budget)
    if structural is True and colourable:
        raise InternalError("structural argument and exhaustive search disagree")
    return not colourable, structural


def structural_not_colourable(
    inst: NecessaryInstance, budget: int = DEFAULT_BUDGET
) -> bool | None:
    """Refute colourability via the copy recursion; None when not applicable.

    At level 0 the star is not colourable exactly when the leaf colours
    cover the centre list.  At higher levels every colour of the special
    vertex must be a copy colour (j, level) whose copy, with that colour
    removed, is itself not colourable.  Returns True only when every
    branch is refuted; a modified instance (extra colours, missing
    metadata) yields False or None rather than a wrong claim.  Each copy is
    read through `induced_subgraph`, numbered in increasing id order with a
    repeated id counted once; an id outside the graph is an InputError.
    """
    g = inst.graph
    if inst.level == 0:
        centre = inst.special_vertex
        leaf_colours = set()
        for v in range(g.n):
            if v != centre:
                leaf_colours.update(inst.lists[v])
        return inst.lists[centre] <= leaf_colours
    if not inst.copies:
        return None
    counter = [0]
    for colour in inst.lists[inst.special_vertex]:
        if not (isinstance(colour, tuple) and len(colour) == 2):
            return False  # foreign colour: cannot refute this branch
        j, lvl = colour
        if lvl != inst.level or not 1 <= j <= len(inst.copies):
            return False
        sub_g, relabel = induced_subgraph(g, inst.copies[j - 1])
        sub_lists = [inst.lists[v] - {colour} for v in relabel]
        if _list_colourable(sub_g, sub_lists, budget, counter):
            return False
    return True


# ---------------------------------------------------------------------------
# Semi-bipartite extraction.

def auto_fugacity(g: Graph) -> float:
    """The default fugacity n / sum of log deg(v) over non-isolated vertices."""
    s = math.fsum(math.log(g.degree(v)) for v in range(g.n) if g.degree(v) >= 1)
    if not s > 0:
        raise InputError(
            "degenerate graph: sum of log-degrees vanishes, supply a fugacity"
        )
    return g.n / s


def _max_degree_sum_set(g: Graph, table: dict[int, int]) -> tuple[VertexSet, int]:
    """The lexicographically first independent set of maximum degree sum.

    One (max, +) forward pass over the exact kernel's split table of g
    (`hardcore._record`) finds it.  M(S), the largest weight of
    an independent subset of the vertex bitmask S, is zero on the empty
    set, the sum over the components of a disconnected S, and
    max(M(S - v), w(v) + M(S - N[v])) at the kernel's branch vertex v.
    Vertex v weighs w(v) = deg(v) 2^n + 2^(n - 1 - v), so a set's weight
    is its degree sum above n rank bits that spell the set, and no sum
    carries out of the rank bits.  Among the sets of largest degree sum, M
    picks the one that holds the lowest vertex where it differs from any
    other.  On sorted member tuples that is the lexicographic order,
    except that a tuple is smaller than its extensions: M's set is the
    lexicographically first one plus every vertex of degree 0 after that
    set's last vertex of positive degree, so those are dropped.
    """
    n = g.n
    adj = g.adjacency_masks
    degrees = tuple(map(len, g.adjacency))
    weights = tuple((d << n) | (1 << (n - 1 - v)) for v, d in enumerate(degrees))
    m = dict.fromkeys(table)  # sized once, so it never grows while it fills
    m[0] = 0
    for s, split in table.items():
        if split > 0:
            m[s] = m[split] + m[s ^ split]
        else:
            v = ~split
            pick = 1 << v
            skip = m[s ^ pick]
            take = m[s & ~adj[v] & ~pick] + weights[v]
            m[s] = take if take > skip else skip
    best = m[(1 << n) - 1]
    members = [v for v in range(n) if best >> (n - 1 - v) & 1]
    while members and not degrees[members[-1]]:
        members.pop()
    return tuple(members), best >> n


def semi_bipartite_extract(
    g: Graph,
    lam="auto",
    trials: int = 32,
    seed: int = 0,
    cutoff: int = hardcore.DEFAULT_CUTOFF,
) -> tuple[VertexSet, VertexSet, float]:
    """Independent set A maximising the boundary edge count, with complement.

    Every edge leaving an independent set A crosses into the complement,
    so the number of edges of the semi-bipartite subgraph on (A, V - A) is
    the degree sum over A.  Below the cutoff the maximum is found exactly
    by `_max_degree_sum_set`, so ``lam`` is only checked, not used: the
    result is the lexicographically first independent set of maximum
    degree sum.  Above it, ``trials`` Glauber samples at fugacity ``lam``
    (seeds ``seed``, ``seed + 1``, ..., `default_glauber_steps` steps each)
    are scored instead; ``trials`` is checked in either mode.  Ties break
    towards the lexicographically smallest A.  Returns (A, B, average
    degree 2 e(A, B) / n).
    """
    return _semi_bipartite(g, lam, trials, seed, cutoff)[:3]


def _semi_bipartite(g: Graph, lam, trials: int, seed: int, cutoff: int):
    """`semi_bipartite_extract`, plus the fugacity it used and the split
    table its exact search read (None when it sampled or g is empty), so
    that the `semibip` command reads the expected boundary edges off the
    same table."""
    if trials < 1:
        raise InputError("trials must be at least 1")
    if not is_triangle_free(g):
        raise HypothesisError("semi_bipartite_extract requires a triangle-free graph")
    if lam == "auto":
        lam = auto_fugacity(g)
    hardcore._check_fugacity(lam)
    if g.n == 0:
        return (), (), 0.0, lam, None
    best: VertexSet | None = None
    best_score = -1
    table = None
    if g.n <= cutoff:
        table = hardcore._record(g)
        best, best_score = _max_degree_sum_set(g, table)
    else:
        n_steps = hardcore.default_glauber_steps(g.n)
        for t in range(trials):
            members = hardcore.glauber_sample(g, lam, n_steps, seed + t)
            score = sum(map(g.degree, members))
            if score > best_score or (score == best_score and (best is None or members < best)):
                best, best_score = members, score
    assert best is not None
    a_set = set(best)
    b_side = tuple(v for v in range(g.n) if v not in a_set)
    avg_degree = 2.0 * best_score / g.n
    return best, b_side, avg_degree, lam, table


def expected_crossing_edges(g: Graph, stats: hardcore.OccupancyStats) -> tuple[float, float]:
    """E|boundary edges of I| under the model of ``stats``, the statistics
    of g, counted both ways: (sum of deg(v) Pr(v in I), sum of E|N(v)
    intersect I|), each an fsum.  Every edge from an occupied vertex
    crosses the boundary and is counted once from each end, so the two
    agree up to rounding."""
    by_degree = math.fsum(g.degree(v) * stats.occupancy[v] for v in range(g.n))
    return by_degree, math.fsum(stats.neighbour_occupancy)


def semi_bipartite_lower_bound(g: Graph, lam: float, ratio: float) -> float:
    """Pre-asymptotic lower bound on the expected boundary edge count.

    ``ratio`` is alpha/beta.  Requires every degree at least 1 so the mean
    log-degree is defined.
    """
    if any(g.degree(v) == 0 for v in range(g.n)):
        raise InputError("lower bound needs minimum degree at least 1")
    if g.n == 0:
        return 0.0
    mean_log_deg = math.fsum(math.log(g.degree(v)) for v in range(g.n)) / g.n
    log1l = math.log1p(lam)
    return (
        g.n
        * lam
        * (mean_log_deg + math.log(ratio) + math.log(log1l) + 1.0)
        / ((1.0 + ratio) * (1.0 + lam) * log1l)
    )
