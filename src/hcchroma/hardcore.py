"""Hard-core model statistics on small graphs.

The hard-core model at fugacity lambda > 0 is the probability distribution
on the independent sets of a graph (including the empty set) in which a set
I occurs with probability lambda^|I| / Z, where Z is the partition function
(independence polynomial).  Exact work over the independent sets is one
memoised fold over induced subgraphs, `_exact_kernel`, that splits a state
into connected components and branches on a vertex of largest degree.  A
split depends on the state alone, so each public entry point records each
split once, in a split table that every kernel it opens reads.  The
fold's sum-product form is Z(S) = Z(S - v) + x Z(S - N[v]) with integer
coefficients, so occupation probabilities, expected neighbourhood
intersections and the two conditional-law identities of triangle-free
graphs are exact quotients of polynomials evaluated at lambda: floats
correctly rounded, or Fractions from `enumerate_stats(g, Fraction(lam))`,
for every positive finite lambda.  Every occupancy comes from one reverse
pass over the states of Z (`_occupancy_counts`).  A marked form, Z(G - v)
with a second variable z on the neighbours of v, gives every weight of the
conditional law at v (fact (b)) from one run per vertex that shares its
unmarked states with Z and its splits with every other run, so the check
never visits the subsets of N(v).  The (max, +) form is semibip's exact
search (`constructions`): one kernel call, whose value spells the set it
found.  Only frac-colour's oracle enumerates independent sets: it lists
G's sets once per run and narrows that list to the live vertices round by
round.  The module also provides a Glauber-dynamics sampler for graphs
above the exact cutoff, whose steps cost O(1) each plus O(deg v) when the
chosen vertex v changes state, and the occupancy lower bound used by the
fractional-colouring weight optimisation.
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
            f"graph has {g.n} vertices, above the exact-enumeration cutoff {cutoff}"
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


def _exact_kernel(g: Graph, memo: dict, splits: dict, join, branch, s: int):
    """The value at the vertex bitmask ``s`` of a memoised fold over the
    induced subgraphs of ``g``.

    The empty set has the unit that ``memo`` holds for 0 when it is passed
    in, a dict {0: unit}; a disconnected S, with C the component of its
    lowest vertex, gives ``join(value(C), value(S - C))``; a connected S
    branches on a vertex v of largest degree in S, the lowest on ties, and
    gives ``branch(v, value(S - v), value(S - N[v]))``.  Z is the
    sum-product form (Levit & Mandrescu, "The independence polynomial of a
    graph - a survey", 2005), semibip's search the (max, +) form (Aji &
    McEliece, "The generalized distributive law", 2000), whose value holds
    the best set as well as its degree sum, and fact (b)'s polynomial a
    marked sum-product form (`_fact_b_weights`).

    A split depends on S alone, not on the form, so each is found once
    per split table ``splits`` and recorded there as one int: the bitmask
    C for a product, ~v (that is, -1 - v) for a branch, from which S - C,
    S - v and S - N[v] take a few integer operations.  Kernels that share
    the table share the component searches and degree scans.  An int, not
    a tuple of the parts, because the interpreter keeps up to 2000 freed
    tuples of each small size for reuse, which would hold on to a table's
    memory after it is dropped.  ``memo`` takes each value after those of
    its parts, so its insertion order is a post-order of the states
    (`_occupancy_counts` walks it backwards).  Both are plain dicts that
    only their owners refer to, with no reference cycle, so they are freed
    as soon as the caller drops them, whether or not the cyclic garbage
    collector runs.  SizeError when the recursion, at most one level per
    vertex, passes the interpreter's limit.
    """
    try:
        return _fold(memo, splits, g.adjacency_masks, join, branch, s)
    except RecursionError:
        raise _recursion_limit_error(g) from None


def _fold(memo: dict, splits: dict, adj, join, branch, s: int):
    """The value of `_exact_kernel` at S, read from or added to ``memo``,
    with S's split read from or added to ``splits``.  A module-level
    function, not a closure that calls itself, which would tie the memo
    into a reference cycle."""
    value = memo.get(s)
    if value is not None:
        return value
    split = splits.get(s)
    if split is None:
        comp = frontier = s & -s
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            new = adj[b.bit_length() - 1] & s & ~comp
            comp |= new
            frontier |= new
        if comp != s:
            split = comp
        else:
            best = -1
            m = s
            while m:
                b = m & -m
                m ^= b
                d = (adj[b.bit_length() - 1] & s).bit_count()
                if d > best:
                    best, pick = d, b
            split = ~(pick.bit_length() - 1)
        splits[s] = split
    if split > 0:
        first = _fold(memo, splits, adj, join, branch, split)
        value = join(first, _fold(memo, splits, adj, join, branch, s ^ split))
    else:
        v = ~split
        pick = 1 << v
        first = _fold(memo, splits, adj, join, branch, s ^ pick)
        value = branch(v, first, _fold(memo, splits, adj, join, branch, s & ~adj[v] & ~pick))
    memo[s] = value
    return value


def _independence_polynomial(g: Graph, memo: dict, splits: dict):
    """``(poly, bits)``: ``poly(S)`` is Z(G[S]; x) = sum_k i_k x^k, where i_k
    counts the independent k-subsets of the vertex bitmask S, evaluated at
    x = 2^bits.  Every i_k is below 2^bits, so the integer holds the
    coefficients in fields of ``bits`` bits, and integer sums and products
    are the sums and products of the polynomials.  ``memo`` is {0: 1},
    Z of the empty set, and ``splits`` a split table (`_exact_kernel`)."""
    bits = g.n + 1
    return partial(_exact_kernel, g, memo, splits, mul, partial(_z_branch, bits)), bits


def _z_branch(bits: int, v: int, skip: int, take: int) -> int:
    return skip + (take << bits)  # Z(S - v) + x Z(S - N[v])


def _marked_branch(bits: int, zshift: int, marked: int, v: int, skip: int, take: int) -> int:
    # P(S - v) + w P(S - N[v]), with weight w = z on a marked v, else x
    return skip + (take << (zshift if marked >> v & 1 else bits))


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


def _occupancy_counts(g: Graph, splits: dict) -> tuple[int, list[int], int]:
    """``(total, counts, bits)``: Z and, for every vertex v, the weight
    x Z(V - N[v]) of the independent sets that hold v, packed as by
    `_independence_polynomial` with the split table ``splits``.

    The counts come from one reverse (adjoint) pass over Z's memo, with no
    further kernel query (Griewank & Walther, "Evaluating Derivatives",
    2008).  The adjoint A(S) weighs the ways to complete an independent
    set of S to one of V along the kernel's splits, with A(V) = 1.  A
    product S = C + R passes A(S) Z(R) to C and A(S) Z(C) to R.  A branch
    on v passes A(S) to S - v and x A(S) to S - N[v], and x A(S)
    Z(S - N[v]) weighs the sets that take v at S.  Each independent set
    takes v at one branch at most, so these sum to v's count.  The memo
    is a post-order, so in reverse every state comes after all the states
    that split into it: its adjoint is complete when it is read, and it
    is dropped then.
    """
    memo = {0: 1}
    poly, bits = _independence_polynomial(g, memo, splits)
    full = (1 << g.n) - 1
    total = poly(full)
    adj = g.adjacency_masks
    counts = [0] * g.n
    adjoint = {full: 1}
    for s in reversed(memo):
        if not s:
            break  # the empty set, the memo's first entry, has no parts
        a = adjoint.pop(s)
        split = splits[s]
        if split > 0:
            rest = s ^ split
            adjoint[split] = adjoint.get(split, 0) + a * memo[rest]
            adjoint[rest] = adjoint.get(rest, 0) + a * memo[split]
        else:
            v = ~split
            pick = 1 << v
            skip = s ^ pick
            take = s & ~adj[v] & ~pick
            adjoint[skip] = adjoint.get(skip, 0) + a
            a <<= bits
            adjoint[take] = adjoint.get(take, 0) + a
            counts[v] += a * memo[take]
    return total, counts, bits


def enumerate_stats(
    g: Graph, lam, max_distance: int = 1, cutoff: int = DEFAULT_CUTOFF
) -> OccupancyStats:
    """Exact occupancy statistics from the independence polynomial.

    Pr(v in I) = lam Z(V - N[v]) / Z, each the float nearest to the exact
    quotient, or the exact Fraction when ``lam`` is a Fraction; at lam = 1
    the floats are the independent-set counts divided once.
    ``log_partition`` is a float either way: log1p(Z - 1) when Z < 2, so
    that a Z near 1 keeps its digits, and log(numerator) - log(denominator)
    of Z as an exact Fraction when Z exceeds every float.

    Cost: one run of the Z kernel and one reverse pass over the states it
    built (`_occupancy_counts`), so the occupancies cost a small multiple
    of Z; no vertex opens a kernel query of its own.
    """
    _check_fugacity(lam)
    _check_max_distance(g, max_distance)
    _check_cutoff(g, cutoff)
    total, counts, bits = _occupancy_counts(g, {})
    try:
        z = _ratio(total, 1, bits, lam)
        log_z = math.log(z) if z >= 2 else math.log1p(_ratio(total - 1, 1, bits, lam))
    except OverflowError:  # Z exceeds every float; log Z from the exact integers
        z = _ratio(total, 1, bits, Fraction(lam))
        log_z = math.log(z.numerator) - math.log(z.denominator)
    occupancy = tuple(_ratio(count, total, bits, lam) for count in counts)
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


class _MarkedMemo(dict):
    """The memo of one marked kernel run, holding the states that meet the
    vertex bitmask ``marked``.  Any other state has no marked vertex, so
    its value is Z's: ``get`` answers it from the Z kernel ``poly``, whose
    memo outlives the run, and `_fold` returns that value without storing
    it here."""

    __slots__ = ("marked", "poly")

    def __init__(self, marked: int, poly):
        super().__init__()
        self.marked = marked
        self.poly = poly

    def get(self, s: int):
        return dict.get(self, s) if s & self.marked else self.poly(s)


def _fact_b_weights(
    g: Graph, poly, bits: int, v: int, splits: dict
) -> tuple[int, list[int], list[int]]:
    """``(zx, total, uncov)`` for the vertex v of a triangle-free graph,
    given its Z kernel ``(poly, bits)`` (`_independence_polynomial`).

    ``zx`` is Z(X) for X = V - N[v].  ``total[j]`` and ``uncov[j]``, for j
    = 0..deg(v), weigh the independent sets that leave exactly j
    neighbours of v uncovered: all of them, and those that leave v
    uncovered too.  Every weight is a packed polynomial in x, as Z is.

    All of them come from one polynomial, P_v(x, z) = Z(G - v) with weight
    x on X and weight z on N(v): the kernel's sum-product form with N(v)
    marked, where a branch on a marked vertex shifts by ``zshift`` = (n + 1)
    fields, so that block i of the integer holds the coefficient c_i(x) of
    z^i.  N(v) is independent and N(u) lies in X + v for every u in N(v),
    so an independent set J of X that leaves j of N(v) uncovered extends by
    any subset of those j, and by nothing else, to a set that avoids v:
    P_v = sum_j A_j(x) (1 + z)^j, where A_j weighs the J that leave exactly
    j uncovered, and A_j = sum_{i >= j} (-1)^(i-j) C(i, j) c_i.  v stays
    uncovered only when the subset is empty; a set that holds v is v plus
    an independent set of X, with j = 0.  Hence total[j] = A_j (1 + x)^j +
    [j = 0] x Z(X) and uncov[j] = A_j + [j = 0] x Z(X), and Z(X) = c_0.

    States that meet N(v) go to a `_MarkedMemo` dropped on return; the
    others are Z states, served by ``poly``.  Every state reads its split
    from, or adds it to, the split table ``splits``, which a split found by
    Z or by another vertex's run serves too.
    """
    zshift = (g.n + 1) * bits
    zmask = (1 << zshift) - 1
    marked = g.adjacency_masks[v]
    branch = partial(_marked_branch, bits, zshift, marked)
    memo = _MarkedMemo(marked, poly)
    p = _exact_kernel(g, memo, splits, mul, branch, ((1 << g.n) - 1) & ~(1 << v))
    c = [(p >> (i * zshift)) & zmask for i in range(marked.bit_count() + 1)]
    uncov = [
        sum((-1) ** (i - j) * math.comb(i, j) * c[i] for i in range(j, len(c)))
        for j in range(len(c))
    ]
    one_x = 1 + (1 << bits)
    total = [a * one_x**j for j, a in enumerate(uncov)]
    occupied = c[0] << bits  # x Z(X): v is in the set
    total[0] += occupied
    uncov[0] += occupied
    return c[0], total, uncov


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
    vertex of V - N(v), so Z(V - N(v)) = (1 + lam) Z(X).  (b) is the
    quotient of the weights of `_fact_b_weights`, integer polynomials, so a
    count j of probability zero has weight exactly zero and is skipped, and
    each conditional law is one correctly rounded quotient.  On a
    triangle-free graph both hold by construction (the derivation of the
    weights proves (b): uncov[j] (1 + x)^j = total[j] for j >= 1, and
    uncov[0] = total[0]), so the residuals are sanity checks of the
    kernel's arithmetic and of the rounding rather than tests of the
    model; the tests check the weights themselves against
    inclusion-exclusion and against enumerating every independent set.

    Cost: one marked kernel run per vertex, on the n - 1 vertices of G - v,
    with coefficients up to degree n in x and deg(v) in z, plus O(deg(v)^2)
    integer operations to read the weights off.  Nothing grows with
    2^deg(v): star(29) takes milliseconds.  The Z states that a run meets
    are shared by all n runs; the marked states live for one run only.
    Z and the n runs share one split table, so a state that several runs
    meet is searched for components and scanned for degrees once; the
    table lives until the check returns.
    """
    _check_fugacity(lam)
    _check_cutoff(g, cutoff)
    if not is_triangle_free(g):
        raise HypothesisError("conditional_fact_check requires a triangle-free graph")
    splits = {}
    poly, bits = _independence_polynomial(g, {0: 1}, splits)
    p_occ = lam / (1.0 + lam)
    res1 = 0.0
    res2 = 0.0
    for v in range(g.n):
        zx, total, uncov = _fact_b_weights(g, poly, bits, v, splits)
        occupied = zx << bits
        res1 = max(res1, abs(_ratio(occupied, zx + occupied, bits, lam) - p_occ))
        for j, (tw, uw) in enumerate(zip(total, uncov)):
            if tw == 0:  # no independent set leaves exactly j neighbours uncovered
                continue
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
