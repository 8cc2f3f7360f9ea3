"""Hard-core model statistics on small graphs.

The hard-core model at fugacity lambda > 0 is the probability distribution
on the independent sets of a graph (including the empty set) in which a
set I occurs with probability lambda^|I| / Z, where Z is the partition
function (independence polynomial).  Exact work over the independent sets
rests on one depth-first walk, `_record`, that splits each induced
subgraph it reaches from V into connected components, or branches on a
vertex of largest degree, and records each state's split once, in
post-order.  Every exact quantity is a loop over that split table
(`_Exact`), in integers at one point x: lambda itself when it is an
integer below 2^(n + 1), else 2^(n + 1), where each integer packs a
polynomial's coefficients.  Z(S) = Z(S - v) + x Z(S - N[v]) is one forward
pass; every occupancy one reverse pass that reads Z; which counts of
uncovered neighbours of v occur (fact (b)), one forward pass at x = 1 over
the states that meet N[v], with weight 0 on v and weight 2^B - 1 on its
neighbours, so that field j of B <= n + 1 bits is the count for j
uncovered neighbours, that reads Z for every other state, so the check
never visits the subsets of N(v), and it runs only at the vertices whose
pass could add a count not yet known; semibip's exact search
(`constructions`) one (max, +) forward pass, whose value spells the set it
found.  So occupation probabilities and expected neighbourhood
intersections are exact quotients of polynomials evaluated at lambda, each
divided once: floats correctly rounded, or Fractions from
`enumerate_stats(g, Fraction(lam))`, for every positive finite lambda; the
residuals of the two conditional-law identities of triangle-free graphs
set exact quotients in lambda, rounded once, against their float formulas.
Only frac-colour's oracle enumerates independent sets: it lists G's sets
once per run, after counting them against `SET_BUDGET`, and narrows that
list to the live vertices round by round.  The module also provides a
Glauber-dynamics sampler for graphs above the exact cutoff, whose steps
cost O(1) each plus O(deg v) when the chosen vertex v changes state, and
the occupancy lower bound used by the fractional-colouring weight
optimisation.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .errors import HypothesisError, InputError, SizeError
from .graph import Graph, VertexSet, is_triangle_free

DEFAULT_CUTOFF = 30
SET_BUDGET = 1 << 18  # independent sets that `independent_set_masks` may list


def _check_fugacity(lam) -> None:
    if not 0 < lam < math.inf:
        raise InputError(f"fugacity must be positive and finite, not {lam!r}")


def _check_cutoff(g: Graph, cutoff: int) -> None:
    if g.n > cutoff:
        raise SizeError(
            f"graph has {g.n} vertices, above the exact-enumeration cutoff {cutoff}"
        )


@dataclass(frozen=True)
class OccupancyStats:
    """Hard-core statistics for one graph and fugacity.

    ``occupancy[v]`` is Pr(v in I) and ``neighbour_occupancy[v]`` is
    E|N(v) intersect I|, the expected number of occupied neighbours of v:
    the two statistics of the local occupancy method, which the fractional
    colouring's weights read.  The JSON form keeps the row under the key
    "1", its distance.  ``log_partition`` is None when the occupancies are
    sampled estimates.
    """

    lam: float
    log_partition: float | None
    occupancy: tuple
    neighbour_occupancy: tuple

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "log_Z": self.log_partition,
            "occupancy": list(self.occupancy),
            "neighbour_occupancy": {"1": list(self.neighbour_occupancy)},
        }


@dataclass(frozen=True)
class FactCheckReport:
    """The largest absolute residual over the vertices of each
    triangle-free conditional identity: fact (a), Pr(v in I | v
    uncovered), and fact (b), Pr(v uncovered | j uncovered neighbours)
    (`conditional_fact_check`)."""

    fact1_residual: float
    fact2_residual: float


def independent_set_masks(g: Graph) -> list[int]:
    """All independent sets as bitmasks, in lexicographic order.

    Order is lexicographic on the sorted member tuples, with the empty set
    first; this is the canonical enumeration order used by the fractional
    colouring when it slices measure into per-set interval blocks.  The
    exact statistics do not enumerate; see `_record`.  SizeError when Z at
    x = 1 (`_Exact`) counts more than `SET_BUDGET` sets; a set of k members
    has 2^k subsets, so the listing recurses at most 18 levels deep.
    """
    count = _Exact(g, 1).z[(1 << g.n) - 1]
    if count > SET_BUDGET:
        shown = count if count < 1 << 64 else f"at least 2^{count.bit_length() - 1}"
        raise SizeError(
            f"graph has {shown} independent sets, above the listing budget {SET_BUDGET}"
        )
    out = [0]
    _extend_sets(g.adjacency_masks, out.append, 0, (1 << g.n) - 1)
    return out


def _extend_sets(adj, append, mask: int, avail: int) -> None:
    """Append ``mask | T`` for every nonempty independent subset T of
    ``avail``, the vertices that may still join ``mask``, in depth-first
    preorder.  Module-level, not a closure that calls itself, which would
    tie the list into a reference cycle."""
    m = avail
    while m:
        b = m & -m
        m ^= b
        v = b.bit_length() - 1
        child = mask | b
        append(child)
        _extend_sets(adj, append, child, m & ~adj[v])


def _record(g: Graph) -> dict[int, int]:
    """The exact kernel's split table: every nonempty state S reached from
    V, mapped to its split, in post-order (each state after its parts).

    A disconnected S splits into C, the component of its lowest vertex,
    and S - C; a connected S branches on a vertex v of largest degree, the
    lowest on ties, into S - v and S - N[v].  A split is one int, C for a
    product and ~v for a branch, not a tuple of the parts: the interpreter
    keeps up to 2000 freed tuples of each small size for reuse, which
    would hold on to a dropped table's memory.  The table is the DAG of
    the generalised distributive law (Aji & McEliece, 2000), so each form
    of the kernel is one loop over it (`_Exact`; semibip's (max, +) search
    in `constructions`).

    A loop over a stack of ints, so no graph is too long for it: a new
    state pushes its split, ~S to mark it, then its parts, the first on
    top; popping the mark records S with the split under it.
    """
    table = {}
    adj = g.adjacency_masks
    stack = [(1 << g.n) - 1]
    pop = stack.pop
    while stack:
        s = pop()
        if s < 0:
            table[~s] = pop()
        if s <= 0 or s in table:
            continue
        comp = frontier = s & -s
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            new = adj[b.bit_length() - 1] & s & ~comp
            comp |= new
            frontier |= new
        if comp != s:
            stack += comp, ~s, s ^ comp, comp
            continue
        best = -1
        m = s
        while m:
            b = m & -m
            m ^= b
            d = (adj[b.bit_length() - 1] & s).bit_count()
            if d > best:
                best, pick = d, b
        v = pick.bit_length() - 1
        stack += ~v, ~s, s & ~adj[v] & ~pick, s ^ pick
    return table


class _Exact:
    """The exact model of one graph at the fugacity ``lam``: its split
    table (`_record`, or the one the caller already holds) and ``z``, which
    maps 0 and every state S of the table to Z(G[S]; x) = sum_k i_k x^k,
    where i_k counts the independent k-subsets of S, at one integer point
    x.  With lam = p / r in lowest terms, x = lam when r = 1 and p <
    2^(n + 1): every weight is then its polynomial's value at lambda.
    Otherwise x = 2^(n + 1): every i_k is below 2^(n + 1), so the integer
    holds the coefficients in fields of n + 1 bits, and integer sums and
    products are those of the polynomials; `stats` reads each weight it
    divides at lambda once.  Z(S; x) grows with x, so a value at x =
    lambda is never a wider integer than the packed one.

    Z is the kernel's sum-product form (Levit & Mandrescu, "The
    independence polynomial of a graph - a survey", 2005), one forward
    pass over the table; the occupancies and fact (b) are further passes
    that read it and record nothing, fact (b) at x = 1, where Z counts
    independent sets.  No reference cycle: the holder is freed as soon as
    its caller drops it, whether or not the cyclic garbage collector runs.
    """

    __slots__ = ("g", "lam", "x", "table", "z")

    def __init__(self, g: Graph, lam, table: dict[int, int] | None = None):
        self.g = g
        self.lam = lam
        p, r = lam.as_integer_ratio()
        self.x = x = p if r == 1 and p < 2 << g.n else 2 << g.n
        self.table = table = _record(g) if table is None else table
        adj = g.adjacency_masks
        self.z = z = dict.fromkeys(table)  # sized once, so it never grows while it fills
        z[0] = 1
        for s, split in table.items():
            if split > 0:
                z[s] = z[split] * z[s ^ split]
            else:
                v = ~split
                pick = 1 << v
                z[s] = z[s ^ pick] + x * z[s & ~adj[v] & ~pick]

    def occupancy_counts(self) -> list[int]:
        """For every vertex v, the weight x Z(V - N[v]) of the independent
        sets that hold v, at the same x as Z.

        The counts come from one reverse (adjoint) pass over the table,
        with no further kernel query (Griewank & Walther, "Evaluating
        Derivatives", 2008).  The adjoint A(S) weighs the ways to complete
        an independent set of S to one of V along the kernel's splits, with
        A(V) = 1.  A product S = C + R passes A(S) Z(R) to C and A(S) Z(C)
        to R.  A branch on v passes A(S) to S - v and x A(S) to S - N[v],
        and x A(S) Z(S - N[v]) weighs the sets that take v at S.  Each
        independent set takes v at one branch at most, so these sum to v's
        count.  The table is a post-order, so in reverse every state comes
        after all the states that split into it: its adjoint is complete
        when it is read, and it is dropped then.
        """
        n, x, z = self.g.n, self.x, self.z
        adj = self.g.adjacency_masks
        counts = [0] * n
        adjoint = {(1 << n) - 1: 1}
        for s, split in reversed(self.table.items()):
            a = adjoint.pop(s)
            if split > 0:
                rest = s ^ split
                adjoint[split] = adjoint.get(split, 0) + a * z[rest]
                adjoint[rest] = adjoint.get(rest, 0) + a * z[split]
            else:
                v = ~split
                pick = 1 << v
                skip = s ^ pick
                take = s & ~adj[v] & ~pick
                adjoint[skip] = adjoint.get(skip, 0) + a
                a *= x
                adjoint[take] = adjoint.get(take, 0) + a
                counts[v] += a * z[take]
        return counts

    def uncovered_counts(self, v: int) -> list[int]:
        """For j = 0..deg(v), A_j: the number of independent sets of X =
        V - N[v] that leave exactly j neighbours of v uncovered, for the
        vertex v of a triangle-free graph.  The model's x must be 1, so
        that ``z`` holds the independent-set counts.

        All of them come from one polynomial, P_v(z) = Z(G - v) with
        weight 1 on X and weight z on N(v): the kernel's sum-product form
        on V with weight 0 on v.  N(v) is independent and N(u) lies in X +
        v for every u in N(v), so an independent set J of X that leaves j
        of N(v) uncovered extends by any subset of those j, and by nothing
        else, to a set that avoids v: P_v(z) = sum_j A_j (1 + z)^j.  At z =
        2^zshift - 1 that is sum_j A_j 2^(zshift j), so field j of
        ``zshift`` bits is A_j itself: ``zshift`` is the bit length of
        Z(V), the number of independent sets of G, at most n + 1 bits, and
        sum_j A_j counts those of X, which is less, so no field carries
        into the next.  Every value stays a nonnegative integer.

        One forward pass over the table computes P_v at the states that
        meet N[v]; any other state has neither v nor a marked vertex, so
        its value is Z's and is read from ``z``.  The pass adds no state to
        the table, and its values are dropped on return.
        """
        n, z = self.g.n, self.z
        adj = self.g.adjacency_masks
        marked = adj[v]
        near = marked | 1 << v
        zshift = z[(1 << n) - 1].bit_length()
        p = {}
        for s, split in self.table.items():
            if not s & near:
                continue
            if split > 0:
                rest = s ^ split
                p[s] = (p[split] if split & near else z[split]) * (
                    p[rest] if rest & near else z[rest])
                continue
            u = ~split
            pick = 1 << u
            skip = s ^ pick
            value = p[skip] if skip & near else z[skip]
            if u != v:  # v weighs 0: no set of G - v holds it
                take = s & ~adj[u] & ~pick
                taken = p[take] if take & near else z[take]
                value += (taken << zshift) - taken if marked >> u & 1 else taken
            p[s] = value
        whole = p[(1 << n) - 1]
        zmask = (1 << zshift) - 1
        return [whole >> (j * zshift) & zmask for j in range(marked.bit_count() + 1)]

    def stats(self) -> OccupancyStats:
        """`enumerate_stats` of the graph, without its checks.

        Z and every count are read at lambda once.  At the packed point,
        with lam = p / r in lowest terms, a weight with fields c_0..c_(k-1)
        reads as sum_i c_i p^i r^(k - 1 - i), its value scaled by r^(k - 1);
        Z's k serves every count x Z(V - N[v]), which is at most Z
        coefficient by coefficient.  Each quotient, log Z's too, divides
        two integers once: a Fraction when lam is one, else int true
        division, which rounds correctly.
        """
        lam, x = self.lam, self.x
        total = self.z[(1 << self.g.n) - 1]
        counts = self.occupancy_counts()
        scale = 1
        if x != lam:
            bits = x.bit_length() - 1
            p, r = lam.as_integer_ratio()
            k = -(-total.bit_length() // bits)
            weights = [p**i * r ** (k - 1 - i) for i in range(k)]

            def at_lam(packed: int) -> int:
                return sum((packed >> (i * bits) & x - 1) * w for i, w in enumerate(weights))

            total, counts, scale = at_lam(total), map(at_lam, counts), weights[0]
        divide = Fraction if isinstance(lam, Fraction) else operator.truediv
        try:
            z = divide(total, scale)
            log_z = math.log(z) if z >= 2 else math.log1p(divide(total - scale, scale))
        except OverflowError:  # Z exceeds every float; log Z from the exact integers
            z = Fraction(total, scale)
            log_z = math.log(z.numerator) - math.log(z.denominator)
        occupancy = tuple(divide(count, total) for count in counts)
        nbr = neighbour_occupancy(self.g, occupancy)
        return OccupancyStats(float(lam), log_z, occupancy, nbr)

    def occurring_counts(self) -> set[int]:
        """The counts j >= 1 with A_j(1) > 0 (`uncovered_counts`) at some
        vertex: the union over vertices that fact (b)'s report reads.

        A vertex v runs its pass only when it could add to the union.
        The empty set J leaves all deg(v) neighbours of v uncovered, so
        every positive degree occurs, and every count v can give lies in
        1..deg(v): the union starts at the positive degrees, the vertices
        are visited by decreasing degree (the lowest first on ties), and v
        is skipped when 1..deg(v) all occur already.  The passes run at
        x = 1: on this model when its x is 1, else on a counting model on
        its table, built when the first pass runs, so a check that needs
        no pass computes no second Z.  The worst case is still one pass
        per vertex: on K_{d,d} only j = 0 and j = d occur, so no vertex is
        skipped.
        """
        degree = [len(nbrs) for nbrs in self.g.adjacency]
        occurring = set(filter(None, degree))
        counting = None
        for v in sorted(range(self.g.n), key=degree.__getitem__, reverse=True):
            if occurring.issuperset(range(1, degree[v] + 1)):
                continue
            if counting is None:
                counting = self if self.x == 1 else _Exact(self.g, 1, self.table)
            occurring.update(j for j, a in enumerate(counting.uncovered_counts(v)) if j and a)
        return occurring

    def fact_check(self, lam) -> FactCheckReport:
        """`conditional_fact_check` of the graph at ``lam``, without its
        checks: each residual once, over `occurring_counts`."""
        occurring = self.occurring_counts()
        q = Fraction(lam)  # exact; a Fraction minus a float rounds the Fraction first
        res1 = abs(q / (1 + q) - lam / (1.0 + lam)) if self.g.n else 0.0
        res2 = max((abs((1 + q) ** -j - (1.0 + lam) ** -j) for j in occurring), default=0.0)
        return FactCheckReport(res1, res2)


def enumerate_stats(g: Graph, lam, *, cutoff: int = DEFAULT_CUTOFF) -> OccupancyStats:
    """Exact occupancy statistics from the independence polynomial.

    Pr(v in I) = lam Z(V - N[v]) / Z, each the float nearest to the exact
    quotient, or the exact Fraction when ``lam`` is a Fraction; at lam = 1
    the floats are the independent-set counts divided once.  E|N(v)
    intersect I| sums the occupancies over N(v) (`neighbour_occupancy`).
    ``log_partition`` is a float either way: log1p(Z - 1) when Z < 2, so
    that a Z near 1 keeps its digits, and log(numerator) - log(denominator)
    of Z as an exact Fraction when Z exceeds every float.

    Cost: the split table and Z's forward pass over it (`_Exact`), then
    one reverse pass over the same table (`_Exact.occupancy_counts`), so
    the occupancies cost a small multiple of Z; no vertex opens a kernel
    query of its own.
    """
    _check_fugacity(lam)
    _check_cutoff(g, cutoff)
    return _Exact(g, lam).stats()


def neighbour_occupancy(g: Graph, occupancy) -> tuple:
    """The row whose entry v, E|N(v) intersect I|, is the sum of
    ``occupancy`` over v's neighbours, whether the occupancies are exact
    or sampled estimates: Fractions are summed exactly, floats with fsum,
    which rounds the exact sum once.  O(n + m).
    """
    exact = bool(occupancy) and isinstance(occupancy[0], Fraction)
    add = partial(sum, start=Fraction(0)) if exact else math.fsum
    return tuple(add(occupancy[u] for u in nbrs) for nbrs in g.adjacency)


def default_glauber_steps(n: int) -> int:
    """Glauber steps per chain when the caller gives none: 50 per vertex,
    and at least 10,000."""
    return max(10_000, 50 * n)


def glauber_sample(g: Graph, lam: float, steps: int, seed: int) -> VertexSet:
    """One draw of single-site Glauber dynamics after ``steps`` updates.

    Each step picks a uniform vertex; if it has no occupied neighbour it
    becomes occupied with probability lambda / (1 + lambda) and unoccupied
    otherwise, while a vertex with an occupied neighbour always becomes
    unoccupied (Dyer & Greenhill, "On Markov chains for independent sets",
    2000).  The stationary law is the hard-core model.

    Random stream: ``random.Random(seed)``; each step draws its vertex as
    ``randrange(n)`` does (``getrandbits(n.bit_length())`` until the value
    is below n) and then calls ``random()`` once, only if the vertex has no
    occupied neighbour.  The draws are those of a loop that calls
    ``randrange(n)``, and the result is deterministic for a fixed seed.

    Cost: the state is a flag per vertex plus a count of its occupied
    neighbours, so a step costs O(1), plus O(deg v) when v changes state.
    """
    import random

    _check_fugacity(lam)
    if steps < 1:
        raise InputError("steps must be at least 1")
    n = g.n
    if n == 0:
        return ()
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    uniform = rng.random
    k = n.bit_length()
    adjacency = g.adjacency
    p_occ = lam / (1.0 + lam)
    occupied = bytearray(n)
    blocked = [0] * n  # occupied neighbours; an occupied vertex has none
    for _ in range(steps):
        v = getrandbits(k)
        while v >= n:
            v = getrandbits(k)
        if blocked[v]:
            continue  # v is unoccupied and stays so
        if uniform() < p_occ:
            if not occupied[v]:
                occupied[v] = 1
                for u in adjacency[v]:
                    blocked[u] += 1
        elif occupied[v]:
            occupied[v] = 0
            for u in adjacency[v]:
                blocked[u] -= 1
    return tuple(v for v in range(n) if occupied[v])


def conditional_fact_check(
    g: Graph, lam: float, cutoff: int = DEFAULT_CUTOFF
) -> FactCheckReport:
    """Verify the two conditional identities of the model on triangle-free graphs.

    For every vertex v:
    (a) Pr(v in I | no neighbour of v in I) equals lambda / (1 + lambda);
    (b) Pr(v uncovered | v has exactly j uncovered neighbours) equals
        (1 + lambda)^-j for every j of positive probability,
    where a vertex is uncovered when none of its neighbours is occupied.
    Returns the maximum absolute residual of each identity.  Identity (b)
    relies on neighbourhoods being independent sets, so a triangle in the
    graph is a hypothesis error.

    (a) is lam Z(X) / Z(V - N(v)) with X = V - N[v]; v is an isolated
    vertex of V - N(v), so Z(V - N(v)) = (1 + lam) Z(X).  In (b), the sets
    that leave exactly j >= 1 neighbours uncovered weigh A_j(lam) (1 +
    lam)^j, and those that leave v uncovered too A_j(lam), where A_j is a
    polynomial with nonnegative coefficients (`_Exact.uncovered_counts`),
    and j = 0 leaves v uncovered surely.  So both identities hold by
    construction, and the check depends on the graph only through the
    counts j with A_j(1) > 0, which are those with A_j(lam) > 0.  Each
    residual is the exact quotient in lambda, rounded once, against the
    float formula: a sanity check of the rounding, not of the model; the
    tests check the counts against inclusion-exclusion and the residuals
    against enumerating every independent set.

    Cost, whatever lambda is: the split table and its states'
    independent-set counts, then one forward pass over the same table for
    each vertex v whose pass could add a count j not yet known
    (`_Exact.occurring_counts`: none when the positive degrees are 1 to
    the largest degree; every vertex on K_{d,d}), which evaluates the
    states meeting N[v], with deg(v) + 1 fields of at most n + 1 bits,
    field j the count A_j itself, and reads the counts for the rest.
    Nothing grows with 2^deg(v): star(29) takes milliseconds.  No pass
    records a state.
    """
    _check_fugacity(lam)
    _check_cutoff(g, cutoff)
    _check_triangle_free(g)
    return _Exact(g, 1).fact_check(lam)


def _check_triangle_free(g: Graph) -> None:
    if not is_triangle_free(g):
        raise HypothesisError("conditional_fact_check requires a triangle-free graph")


def hcm_lower_bound(lam: float, alpha_v: float, beta_v: float) -> float:
    """Lower bound on alpha * Pr(v in I) + beta * E|N(v) intersect I|.

    Valid for every vertex of a triangle-free graph under the hard-core
    model at fugacity ``lam``.  May be negative for extreme alpha/beta
    ratios, which is the caller's concern.
    """
    _check_fugacity(lam)
    if not (alpha_v > 0 and beta_v > 0):
        raise InputError("alpha_v and beta_v must be positive")
    log1l = math.log1p(lam)
    return (
        beta_v
        * lam
        * (math.log(alpha_v / beta_v) + math.log(log1l) + 1.0)
        / ((1.0 + lam) * log1l)
    )
