"""Hard-core model statistics on small graphs.

The hard-core model at fugacity lambda > 0 is the probability distribution
on the independent sets of a graph (including the empty set) in which a set
I occurs with probability lambda^|I| / Z, where Z is the partition function
(independence polynomial).  This module computes exact per-vertex
occupation probabilities and expected neighbourhood intersections by
enumerating all independent sets, provides a Glauber-dynamics sampler for
graphs above the enumeration cutoff, verifies the two conditional-law
identities that hold on triangle-free graphs, and evaluates the occupancy
lower bound used by the fractional-colouring weight optimisation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import HypothesisError, InputError, SizeError
from .graph import Graph, VertexSet, is_triangle_free, neighbourhood_at_distance

DEFAULT_CUTOFF = 30
RATIONAL_CUTOFF = 12


def _check_fugacity(lam) -> None:
    if not 0 < lam < math.inf:
        raise InputError(f"fugacity must be positive and finite, not {lam!r}")


def _check_max_distance(g: Graph, max_distance: int) -> None:
    limit = max(1, g.n)  # no vertex is at distance n or more: only zero rows lie beyond
    if not 1 <= max_distance <= limit:
        raise InputError(f"max_distance must be between 1 and {limit}, not {max_distance}")


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

    def expected_set_size(self):
        return math.fsum(self.occupancy)

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
    colouring when it slices measure into per-set interval blocks.
    """
    adj = g.adjacency_masks
    out = [0]
    append = out.append

    def rec(mask: int, avail: int) -> None:
        m = avail
        while m:
            b = m & -m
            m ^= b
            v = b.bit_length() - 1
            child = mask | b
            append(child)
            rec(child, m & ~adj[v])

    rec(0, (1 << g.n) - 1)
    return out


def mask_to_vertex_set(mask: int) -> VertexSet:
    out = []
    while mask:
        b = mask & -mask
        mask ^= b
        out.append(b.bit_length() - 1)
    return tuple(out)


def enumerate_stats(
    g: Graph, lam: float, max_distance: int = 1, cutoff: int = DEFAULT_CUTOFF
) -> OccupancyStats:
    """Exact occupancy statistics by enumerating every independent set.

    All sets are visited once and the per-vertex weights are accumulated
    with Kahan compensation, so residuals stay near machine precision even
    for graphs near the cutoff.
    """
    _check_fugacity(lam)
    _check_max_distance(g, max_distance)
    _check_cutoff(g, cutoff)
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
    z = z_s
    if not math.isfinite(z):
        raise InputError(
            f"partition function overflows a float at fugacity {lam!r}"
        )
    occupancy = tuple(occ_s[v] / z for v in range(n))
    nbr = neighbour_occupancy(g, occupancy, max_distance)
    return OccupancyStats(float(lam), math.log(z), occupancy, nbr)


def neighbour_occupancy(
    g: Graph, occupancy, max_distance: int
) -> dict[int, tuple[float, ...]]:
    """Expected occupied vertices at distance exactly j from each vertex.

    Maps each j in 1..max_distance to the per-vertex sums of ``occupancy``
    over the vertices at distance j, whether the occupancies are exact or
    sampled estimates.  ``max_distance`` may not exceed max(1, n), since
    no vertex is at distance n or more.
    """
    _check_max_distance(g, max_distance)
    return {
        j: tuple(
            math.fsum(occupancy[u] for u in neighbourhood_at_distance(g, v, j))
            for v in range(g.n)
        )
        for j in range(1, max_distance + 1)
    }


def enumerate_stats_rational(
    g: Graph, lam, max_distance: int = 1, cutoff: int = RATIONAL_CUTOFF
) -> OccupancyStats:
    """Exact-rational occupancy statistics, for validating the float path.

    Only intended for tiny graphs (default cutoff 12 vertices).  ``lam``
    is converted to a Fraction; the returned occupancy values are exact
    Fractions while ``log_partition`` is a float.
    """
    lam = Fraction(lam)
    _check_fugacity(lam)
    _check_max_distance(g, max_distance)
    _check_cutoff(g, cutoff)
    n = g.n
    pw = [Fraction(1)]
    for _ in range(n):
        pw.append(pw[-1] * lam)
    z = Fraction(0)
    occ = [Fraction(0)] * n
    for mask in independent_set_masks(g):
        w = pw[mask.bit_count()]
        z += w
        m = mask
        while m:
            b = m & -m
            m ^= b
            occ[b.bit_length() - 1] += w
    occupancy = tuple(occ[v] / z for v in range(n))
    nbr = {
        j: tuple(
            sum((occupancy[u] for u in neighbourhood_at_distance(g, v, j)), Fraction(0))
            for v in range(n)
        )
        for j in range(1, max_distance + 1)
    }
    return OccupancyStats(float(lam), math.log(z), occupancy, nbr)


def exact_distribution(
    g: Graph, lam: float, cutoff: int = DEFAULT_CUTOFF
) -> tuple[list[int], list[float]]:
    """Independent sets (as bitmasks, canonical order) with probabilities."""
    _check_fugacity(lam)
    _check_cutoff(g, cutoff)
    masks = independent_set_masks(g)
    pw = [1.0]
    for _ in range(g.n):
        pw.append(pw[-1] * lam)
    weights = [pw[m.bit_count()] for m in masks]
    z = math.fsum(weights)
    return masks, [w / z for w in weights]


def glauber_sample(
    g: Graph, lam: float, steps: int, seed: int, check_each_step: bool = False
) -> VertexSet:
    """One draw of single-site Glauber dynamics after ``steps`` updates.

    Each step picks a uniform vertex; if it has no occupied neighbour it
    becomes occupied with probability lambda / (1 + lambda) and unoccupied
    otherwise, while a vertex with an occupied neighbour always becomes
    unoccupied.  The stationary law is the hard-core model.  Deterministic
    for a fixed seed; ``check_each_step`` asserts that the state stays an
    independent set.
    """
    import random

    _check_fugacity(lam)
    if steps < 1:
        raise InputError("steps must be at least 1")
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
        if check_each_step:
            m = state
            while m:
                b = m & -m
                m ^= b
                if adj[b.bit_length() - 1] & state:
                    raise AssertionError("Glauber state left the independent sets")
    return mask_to_vertex_set(state)


def conditional_fact_check(
    g: Graph, lam: float, cutoff: int = DEFAULT_CUTOFF
) -> FactCheckReport:
    """Verify the two conditional identities of the model on triangle-free graphs.

    By exact enumeration, for every vertex v:
    (a) Pr(v in I | no neighbour of v in I) equals lambda / (1 + lambda);
    (b) Pr(v uncovered | v has exactly j uncovered neighbours) equals
        (1 + lambda)^-j for every j of positive probability,
    where a vertex is uncovered when none of its neighbours is occupied.
    Returns the maximum absolute residual of each identity.  Identity (b)
    relies on neighbourhoods being independent sets, so a triangle in the
    graph is a hypothesis error.
    """
    _check_fugacity(lam)
    _check_cutoff(g, cutoff)
    if not is_triangle_free(g):
        raise HypothesisError("conditional_fact_check requires a triangle-free graph")
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
        m = mask
        while m:
            b = m & -m
            m ^= b
            covered |= adj[b.bit_length() - 1]
        uncovered_mask = full & ~covered
        for v in range(n):
            j = (adj[v] & uncovered_mask).bit_count()
            tj = total_by_j[v]
            tj[j] = tj.get(j, 0.0) + w
            if uncovered_mask >> v & 1:
                uncovered_w[v] += w
                uj = uncov_by_j[v]
                uj[j] = uj.get(j, 0.0) + w
                if mask >> v & 1:
                    occupied_w[v] += w
    p_occ = lam / (1.0 + lam)
    res1 = 0.0
    res2 = 0.0
    for v in range(n):
        res1 = max(res1, abs(occupied_w[v] / uncovered_w[v] - p_occ))
        for j, tw in total_by_j[v].items():
            if tw == 0.0:  # every set with this j underflowed to weight 0
                continue
            cond = uncov_by_j[v].get(j, 0.0) / tw
            res2 = max(res2, abs(cond - (1.0 + lam) ** (-j)))
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
