"""Hard-core model statistics on small graphs.

The hard-core model at fugacity lambda > 0 is the probability distribution
on the independent sets of a graph (including the empty set) in which a set
I occurs with probability lambda^|I| / Z, where Z is the partition function
(independence polynomial).  Exact work over the independent sets is one
memoised fold over induced subgraphs, `_exact_kernel`, that splits a state
into connected components and branches on a vertex of largest degree.  Its
sum-product form is Z(S) = Z(S - v) + x Z(S - N[v]) with integer
coefficients, so occupation probabilities, expected neighbourhood
intersections and the two conditional-law identities of triangle-free
graphs are exact quotients of polynomials evaluated at lambda: floats
correctly rounded, or Fractions from `enumerate_stats(g, Fraction(lam))`,
for every positive finite lambda.  Its (max, +) form is semibip's exact
search (`constructions`).  Only frac-colour's oracle enumerates
independent sets: it lists G's sets once per run and narrows that list to
the live vertices round by round.  The module also provides a
Glauber-dynamics sampler for graphs above the exact cutoff, whose steps
cost O(1) each plus O(deg v) when the chosen vertex v changes state, and
the occupancy lower bound used by the fractional-colouring weight
optimisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from operator import mul
from typing import Mapping

from .errors import HypothesisError, InputError, SizeError
from .graph import Graph, VertexSet, distance_layers, is_triangle_free

DEFAULT_CUTOFF = 30


def _check_fugacity(lam) -> None:
    if not 0 < lam < math.inf:
        raise InputError(f"fugacity must be positive and finite, not {lam!r}")


def _check_max_distance(g: Graph, max_distance: int) -> None:
    limit = max(1, g.n)  # no vertex is at distance n or more: only zero rows lie beyond
    if not 1 <= max_distance <= limit:
        raise InputError(f"max_distance must be between 1 and {limit}, not {max_distance}")


def _recursion_limit_error(g: Graph) -> SizeError:
    """The error an exact kernel raises when its recursion, about one level
    per vertex, passes the interpreter's recursion limit."""
    return SizeError(
        f"exact computation on a {g.n}-vertex graph recurses past the "
        f"interpreter's recursion limit"
    )


def _check_cutoff(g: Graph, cutoff: int) -> None:
    if g.n > cutoff:
        raise SizeError(
            f"graph has {g.n} vertices, above the exact-enumeration cutoff "
            f"{cutoff}; use glauber_sample for larger graphs"
        )


@dataclass(frozen=True)
class OccupancyStats:
    """Exact hard-core statistics for one graph and fugacity.

    ``occupancy[v]`` is Pr(v in I) and ``neighbour_occupancy[j][v]`` is the
    expected number of occupied vertices at distance exactly j from v.
    ``log_partition`` is None when the occupancies are sampled estimates.
    """

    lam: float
    log_partition: float | None
    occupancy: tuple
    neighbour_occupancy: Mapping[int, tuple]

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "log_Z": self.log_partition,
            "occupancy": list(self.occupancy),
            "neighbour_occupancy": {
                str(j): list(row) for j, row in sorted(self.neighbour_occupancy.items())
            },
        }


@dataclass(frozen=True)
class FactCheckReport:
    """Maximum residuals of the two triangle-free conditional identities."""

    lam: float
    fact1_residual: float
    fact2_residual: float

    @property
    def max_residual(self) -> float:
        return max(self.fact1_residual, self.fact2_residual)


def independent_set_masks(g: Graph) -> list[int]:
    """All independent sets as bitmasks, in lexicographic order.

    Order is lexicographic on the sorted member tuples, with the empty set
    first; this is the canonical enumeration order used by the fractional
    colouring when it slices measure into per-set interval blocks.  The
    exact statistics do not enumerate; see `_exact_kernel`.
    The recursion goes one level per member of the set being extended;
    SizeError when it passes the interpreter's limit.
    """
    out = [0]
    try:
        _extend_sets(g.adjacency_masks, out.append, 0, (1 << g.n) - 1)
    except RecursionError:
        raise _recursion_limit_error(g) from None
    return out


def _extend_sets(adj, append, mask: int, avail: int) -> None:
    """Append ``mask | T`` for every nonempty independent subset T of
    ``avail``, the vertices that may still join ``mask``, in depth-first
    preorder.  Module-level for the reason given at `_fold`."""
    m = avail
    while m:
        b = m & -m
        m ^= b
        v = b.bit_length() - 1
        child = mask | b
        append(child)
        _extend_sets(adj, append, child, m & ~adj[v])


def _exact_kernel(g: Graph, unit, join, branch):
    """A memoised fold over the induced subgraphs of ``g``.

    Returns ``value``: for a vertex bitmask S, ``value(0)`` is ``unit``; a
    disconnected S, with C the component of its lowest vertex, gives
    ``join(value(C), value(S - C))``; a connected S branches on a vertex v
    of largest degree in S, the lowest on ties, and gives
    ``branch(v, value(S - v), value(S - N[v]))``.  Z is the sum-product
    form (Levit & Mandrescu, "The independence polynomial of a graph - a
    survey", 2005), semibip's largest degree sum the (max, +) form (Aji &
    McEliece, "The generalized distributive law", 2000).  The memo is a
    plain dict that only ``value`` refers to, with no reference cycle, so
    it is freed as soon as the caller drops ``value``, whether or not the
    cyclic garbage collector runs.  ``value`` raises SizeError when the
    recursion, at most one level per vertex, passes the interpreter's limit.
    """
    return partial(_kernel_value, g, {0: unit}, join, branch)


def _kernel_value(g: Graph, memo: dict, join, branch, s: int):
    try:
        return _fold(memo, g.adjacency_masks, join, branch, s)
    except RecursionError:
        raise _recursion_limit_error(g) from None


def _fold(memo: dict, adj, join, branch, s: int):
    """The value of `_exact_kernel` at S, read from or added to ``memo``.
    A module-level function, not a closure that calls itself, which would
    tie the memo into a reference cycle."""
    value = memo.get(s)
    if value is not None:
        return value
    comp = frontier = s & -s
    while frontier:
        b = frontier & -frontier
        frontier ^= b
        new = adj[b.bit_length() - 1] & s & ~comp
        comp |= new
        frontier |= new
    if comp != s:
        first = _fold(memo, adj, join, branch, comp)
        value = join(first, _fold(memo, adj, join, branch, s ^ comp))
    else:
        best = -1
        m = s
        while m:
            b = m & -m
            m ^= b
            d = (adj[b.bit_length() - 1] & s).bit_count()
            if d > best:
                best, pick = d, b
        v = pick.bit_length() - 1
        skip = _fold(memo, adj, join, branch, s ^ pick)
        value = branch(v, skip, _fold(memo, adj, join, branch, s & ~adj[v] & ~pick))
    memo[s] = value
    return value


def _independence_polynomial(g: Graph):
    """``(poly, bits)``: ``poly(S)`` is Z(G[S]; x) = sum_k i_k x^k, where i_k
    counts the independent k-subsets of the vertex bitmask S, evaluated at
    x = 2^bits.  Every i_k is below 2^bits, so the integer holds the
    coefficients in fields of ``bits`` bits, and integer sums and products
    are the sums and products of the polynomials."""
    bits = g.n + 1
    return _exact_kernel(g, 1, mul, partial(_z_branch, bits)), bits


def _z_branch(bits: int, v: int, skip: int, take: int) -> int:
    return skip + (take << bits)  # Z(S - v) + x Z(S - N[v])


def _ratio(num: int, den: int, bits: int, lam):
    """num(lam) / den(lam) for packed polynomials with nonnegative coefficients.

    With lam = p / r in lowest terms, both polynomials are evaluated as
    integers scaled by the same power of r, so the quotient is exact: a
    Fraction when ``lam`` is one, else the float nearest to it (nothing
    underflows or cancels on the way; OverflowError when it exceeds every
    float).
    """
    p, r = lam.as_integer_ratio()
    mask = (1 << bits) - 1
    fields = -(-max(num.bit_length(), den.bit_length()) // bits)

    def scaled(packed: int) -> int:
        acc, rk = 0, 1
        for k in range(fields - 1, -1, -1):
            acc = acc * p + ((packed >> (k * bits)) & mask) * rk
            rk *= r
        return acc

    top, bottom = scaled(num), scaled(den)
    return Fraction(top, bottom) if isinstance(lam, Fraction) else top / bottom


def enumerate_stats(
    g: Graph, lam, max_distance: int = 1, cutoff: int = DEFAULT_CUTOFF
) -> OccupancyStats:
    """Exact occupancy statistics from the independence polynomial.

    Pr(v in I) = lam Z(V - N[v]) / Z, each the float nearest to the exact
    quotient, or the exact Fraction when ``lam`` is a Fraction; at lam = 1
    the floats are the independent-set counts divided once.
    ``log_partition`` is a float either way; when Z exceeds every float it
    is log(numerator) - log(denominator) of Z as an exact Fraction.
    """
    _check_fugacity(lam)
    _check_max_distance(g, max_distance)
    _check_cutoff(g, cutoff)
    poly, bits = _independence_polynomial(g)
    full = (1 << g.n) - 1
    adj = g.adjacency_masks
    total = poly(full)
    try:
        log_z = math.log(_ratio(total, 1, bits, lam))
    except OverflowError:  # Z exceeds every float; log Z from the exact integers
        z = _ratio(total, 1, bits, Fraction(lam))
        log_z = math.log(z.numerator) - math.log(z.denominator)
    occupancy = tuple(
        _ratio(poly(full & ~adj[v] & ~(1 << v)) << bits, total, bits, lam)
        for v in range(g.n)
    )
    nbr = neighbour_occupancy(g, occupancy, max_distance)
    return OccupancyStats(float(lam), log_z, occupancy, nbr)


def neighbour_occupancy(
    g: Graph, occupancy, max_distance: int
) -> dict[int, tuple[float, ...]]:
    """Expected occupied vertices at distance exactly j from each vertex.

    Maps each j in 1..max_distance to the per-vertex sums of ``occupancy``
    over the vertices at distance j, whether the occupancies are exact or
    sampled estimates: Fractions are summed exactly, floats with fsum.
    ``max_distance`` may not exceed max(1, n), since no vertex is at
    distance n or more.  One breadth-first search per vertex, so the cost
    is O(n (n + m)) whatever ``max_distance`` is.
    """
    _check_max_distance(g, max_distance)
    exact = bool(occupancy) and isinstance(occupancy[0], Fraction)
    add = partial(sum, start=Fraction(0)) if exact else math.fsum
    by_vertex = [
        [add(occupancy[u] for u in layer) for layer in distance_layers(g, v, max_distance)]
        for v in range(g.n)
    ]
    return {
        j: tuple(sums[j - 1] for sums in by_vertex) for j in range(1, max_distance + 1)
    }


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

    (a) is lam Z(V - N[v]) / Z(V - N(v)); v is an isolated vertex of
    V - N(v), so this is a sanity check of the kernel rather than a test.
    (b) is inclusion-exclusion over T subset of N(v): all of T is
    uncovered exactly when I avoids N(T), which has weight Z(V - N(T)), so
    the weight of "exactly j of N(v) uncovered" is the sum over k >= j of
    (-1)^(k-j) C(k, j) S_k, where S_k sums Z(V - N(T)) over |T| = k (and
    Z(V - N(T) - N(v)) for the joint law with v uncovered).  The kernel's
    polynomials have integer coefficients, so these signed sums are exact:
    a count j of probability zero sums to exactly zero and is skipped, and
    each conditional law is one correctly rounded quotient.  (Float sums
    of the same terms cancel badly: on star(8) at lambda = 0.7 they report
    a residual of 0.59 for counts that cannot occur.)

    Cost: two kernel queries per subset of N(v), most of them memo hits.
    N(v) is independent, so 2^deg(v) <= #IS and the check makes at most
    2n (#IS + 1) queries, against the n #IS per-vertex updates of
    enumerating every independent set.
    """
    _check_fugacity(lam)
    _check_cutoff(g, cutoff)
    if not is_triangle_free(g):
        raise HypothesisError("conditional_fact_check requires a triangle-free graph")
    poly, bits = _independence_polynomial(g)
    adj = g.adjacency_masks
    full = (1 << g.n) - 1
    p_occ = lam / (1.0 + lam)
    res1 = 0.0
    res2 = 0.0
    for v in range(g.n):
        free = full & ~adj[v]
        occupied = poly(free & ~(1 << v)) << bits
        res1 = max(res1, abs(_ratio(occupied, poly(free), bits, lam) - p_occ))
        d = g.degree(v)
        covers = [0]  # N(T) for every T subset of N(v), indexed by bitmask
        for u in g.adjacency[v]:
            covers += [c | adj[u] for c in covers]
        total_by_size = [0] * (d + 1)
        uncov_by_size = [0] * (d + 1)
        for t, cover in enumerate(covers):
            rest = full & ~cover
            total_by_size[t.bit_count()] += poly(rest)
            uncov_by_size[t.bit_count()] += poly(rest & ~adj[v])
        for j in range(d + 1):
            signs = [(-1) ** (k - j) * math.comb(k, j) for k in range(j, d + 1)]
            tw = sum(c * s for c, s in zip(signs, total_by_size[j:]))
            if tw == 0:  # no independent set leaves exactly j neighbours uncovered
                continue
            uw = sum(c * s for c, s in zip(signs, uncov_by_size[j:]))
            res2 = max(res2, abs(_ratio(uw, tw, bits, lam) - (1.0 + lam) ** (-j)))
    return FactCheckReport(float(lam), res1, res2)


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
