"""Greedy fractional colouring with a pluggable distribution oracle.

A fractional colouring assigns pairwise disjoint right-half-open real
intervals to independent sets so that every vertex accumulates total
measure at least 1 across the sets containing it.  The greedy algorithm
repeatedly asks an oracle for a probability distribution on the
independent sets of the surviving induced subgraph, adds tau units of
measure split across the sets in proportion to their probabilities, and
removes saturated vertices.  The weights are one pair (alpha_v, beta_v)
per vertex, and every round the oracle's distribution must satisfy
alpha_v Pr(v in I) + beta_v E|N(v) /\\ I| >= 1 on the surviving subgraph.
With the locally optimised pairs computed here from per-vertex degrees,
feeding in the exact hard-core distribution colours every vertex v of a
triangle-free graph inside [0, (1 + lam)/lam * exp(W(deg(v) * log(1 + lam)))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, islice, pairwise, repeat
from operator import le, lt
from typing import Callable, Iterable, Mapping, Sequence, TextIO

from . import hardcore
from .errors import HypothesisError, InputError, InternalError, StateError
from .graph import Graph, VertexSet
from .numerics import lambert_w

Interval = tuple[float, float]

SATURATE_TOL = 1e-9
HYPOTHESIS_TOL = 1e-9
CAP_TOL = 1e-12
WRITE_BATCH = 32  # text chunks per write in FractionalColouring.write_json


def interval_measure(intervals: Iterable[Interval]) -> float:
    return math.fsum(b - a for a, b in intervals)


@dataclass(frozen=True)
class SetDistribution:
    """Explicit probability distribution on independent sets of a subgraph.

    ``sets`` holds subsets of the live vertices, in the global ids of the
    ambient graph, strictly increasing in the canonical (lexicographic)
    order, and ``probs`` the matching probabilities.
    """

    sets: tuple[VertexSet, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.sets) != len(self.probs):
            raise InputError("sets and probs must have equal length")
        # written so that NaN fails both probability checks
        if not all(map(le, repeat(0.0), self.probs)):
            raise InputError("probabilities must be non-negative")
        if not abs(math.fsum(self.probs) - 1.0) <= 1e-9:
            raise InputError("probabilities must sum to 1")
        if not all(map(lt, self.sets, self.sets[1:])):
            raise InputError("sets must be strictly increasing in canonical order")

    def occupancy(self, n: int) -> list[float]:
        occ = [0.0] * n
        for s, p in zip(self.sets, self.probs):
            for v in s:
                occ[v] += p
        return occ


DistributionOracle = Callable[[Graph, tuple[int, ...]], SetDistribution]
"""``oracle(g, live)``: a distribution on the independent sets of g[live].

``g`` is the ambient graph and ``live`` the sorted tuple of unsaturated
vertices; the sets come back in g's vertex ids.  The greedy calls the
oracle once per round with a live tuple that shrinks from round to round,
so an oracle may list g's sets once and narrow that list each round, as
`hard_core_oracle` does.
"""


def hard_core_oracle(lam: float) -> DistributionOracle:
    """Oracle serving the exact hard-core distribution at fugacity ``lam``.

    The independent sets of g[live] are the independent sets of g that
    avoid every vertex outside ``live``.  So the first call on a graph lists
    g's sets once, in canonical order, into a table of masks, member tuples
    (global ids) and weights lam^|I|.  Every call narrows the table to the
    sets that avoid the vertices the previous call had live and this one
    has not, and divides their weights by their fsum.  Dropped rows are
    gone, so each round filters only the sets the round before kept.  A
    call on another graph, or with a vertex live that the previous call did
    not have, lists the graph's sets again; SizeError when there are more
    than `hardcore.SET_BUDGET`.  The table is three columns
    filtered by `itertools.compress`: a tuple per row would give the cyclic
    garbage collector one more object per set to track.  It lives as long
    as the oracle does; drop the oracle once the greedy returns to free it.
    """
    served: Graph | None = None
    served_live = 0
    # the table, one column per field, row i being g's i-th independent set
    masks: list[int] = []
    sets: tuple[VertexSet, ...] = ()
    weights: list[float] = []

    def oracle(g: Graph, live: tuple[int, ...]) -> SetDistribution:
        nonlocal served, served_live, masks, sets, weights
        live_mask = sum(1 << v for v in live)
        if g is not served or live_mask & ~served_live:
            hardcore._check_fugacity(lam)
            pw = [1.0]
            for _ in range(g.n):
                pw.append(pw[-1] * lam)
            masks = hardcore.independent_set_masks(g)
            # in depth-first preorder each set's latest predecessor one
            # member smaller is its parent: the set without its top member
            prefix: list[VertexSet] = [()] * (g.n + 1)
            members: list[VertexSet] = [()]
            weights = [1.0]
            for m in islice(masks, 1, None):
                k = m.bit_count()
                prefix[k] = prefix[k - 1] + (m.bit_length() - 1,)
                members.append(prefix[k])
                weights.append(pw[k])
            sets = tuple(members)
            served = g
            served_live = (1 << g.n) - 1
        dead = served_live & ~live_mask
        if dead:
            keep = [not m & dead for m in masks]
            masks = list(compress(masks, keep))
            sets = tuple(compress(sets, keep))
            weights = list(compress(weights, keep))
        served_live = live_mask
        z = math.fsum(weights)
        return SetDistribution(sets, tuple(w / z for w in weights))

    return oracle


@dataclass(frozen=True)
class LocalWeights:
    """Per-vertex weight pairs (alpha_v, beta_v) with derived caps.

    ``alpha[v]`` is the pair (alpha_v, beta_v) and ``gamma[v]`` equals
    alpha_v + beta_v * deg(v) in the ambient graph; gamma caps the total
    measure the greedy algorithm may spend while v is unsaturated.
    """

    alpha: tuple[tuple[float, float], ...]
    gamma: tuple[float, ...]

    @classmethod
    def from_alpha(cls, g: Graph, alpha: Sequence[Sequence[float]]) -> "LocalWeights":
        if len(alpha) != g.n:
            raise InputError("need one weight pair per vertex")
        if any(len(a) != 2 for a in alpha):
            raise InputError("each weight list must be a pair (alpha_v, beta_v)")
        gamma = tuple(math.fsum((a, b * g.degree(v))) for v, (a, b) in enumerate(alpha))
        return cls(tuple((float(a), float(b)) for a, b in alpha), gamma)


@dataclass(frozen=True)
class FractionalColouring:
    """Mapping from independent sets to disjoint half-open intervals.

    ``parts`` maps each independent set (sorted vertex tuple, possibly the
    empty tuple) to its intervals; across all sets the intervals are
    pairwise disjoint and tile [0, total).  ``taus`` records the measure
    added per greedy iteration.  The parts, one per independent set coloured
    in some round, are the one full copy of the colouring: `write_json`
    streams its text out, and `validate_colouring` shares their interval
    lists rather than copying them per member vertex.
    """

    parts: Mapping[VertexSet, tuple[Interval, ...]]
    total: float
    taus: tuple[float, ...] = field(default=(), compare=False)

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "parts": [
                {"set": list(s), "intervals": [[a, b] for a, b in self.parts[s]]}
                for s in sorted(self.parts)
            ],
        }

    def write_json(self, fh: TextIO) -> None:
        """Write ``json.dumps(self.to_json_dict(), indent=2, sort_keys=True)
        + "\\n"`` to the text stream ``fh``, part by part.

        Parts go out in the canonical set order, a batch of them per
        ``fh.write``, so the writer never holds more than a batch of the
        text: the colouring itself is the only full copy.  Numbers are
        spelled by ``repr``, exactly as the encoder spells them, which also
        avoids the generator frame per value that the encoder builds once
        ``indent`` is set.  A non-finite total or endpoint has no JSON
        spelling: one pass finds it before the first byte and raises
        InputError, so nothing is written.

        Each endpoint is spelled once.  In a greedy colouring a block's end
        is the start of the round's next block, which belongs to a later
        set, so the end's text is held, keyed by its value, until a start
        of equal value takes it.  Equal floats have equal ``repr`` except
        0.0 and -0.0, so a zero is never held or looked up; nor is an int,
        which equals the float of its value but is spelled without ".0".
        Of a greedy colouring only the ends of rounds stay held, one per
        round.
        """
        endpoints = chain.from_iterable(chain.from_iterable(self.parts.values()))
        if not (math.isfinite(self.total) and all(map(math.isfinite, endpoints))):
            raise InputError("colouring has a non-finite total or endpoint")
        held: dict[float, str] = {}
        take = held.pop
        chunks = ['{\n  "parts": [']
        sep = "\n"
        for s in sorted(self.parts):
            ivs = self.parts[s]
            chunks.append(sep)
            sep = ",\n"
            if ivs:
                pairs = []
                for a, b in ivs:
                    start = take(a, None) if a and type(a) is float else None
                    end = repr(b)
                    if b and type(b) is float:
                        held[b] = end
                    pairs.append(f"{start or repr(a)},\n          {end}")
                body = "\n        ],\n        [\n          ".join(pairs)
                chunks.append(
                    '    {\n      "intervals": [\n        [\n          '
                    + body + "\n        ]\n      ],\n"
                )
            else:
                chunks.append('    {\n      "intervals": [],\n')
            if s:
                members = ",\n        ".join(map(repr, s))
                chunks.append(f'      "set": [\n        {members}\n      ]\n    }}')
            else:
                chunks.append('      "set": []\n    }')
            if len(chunks) >= WRITE_BATCH:
                fh.write("".join(chunks))
                chunks.clear()
        chunks.append("\n  ]" if self.parts else "]")
        chunks.append(f',\n  "total": {self.total!r}\n}}\n')
        fh.write("".join(chunks))


def _oracle_scores(g: Graph, live, occ: Sequence[float], weights: LocalWeights) -> list[float]:
    """Per live v, alpha_v * Pr(v in I) + beta_v * E|N_H(v) /\\ I| on
    H = g[live], with ``occ`` in g's ids; N_H(v) is v's live neighbours."""
    alive = set(live)
    scores = []
    for v in live:
        a, b = weights.alpha[v]
        s = a * occ[v]
        nbrs = [u for u in g.adjacency[v] if u in alive]
        if nbrs:
            s += b * math.fsum(occ[u] for u in nbrs)
        scores.append(s)
    return scores


def greedy_fractional_colouring(
    g: Graph, weights: LocalWeights, oracle: DistributionOracle
) -> FractionalColouring:
    """Run the greedy measure-spreading loop until every vertex saturates.

    Each iteration queries the oracle with G and the unsaturated vertices,
    checks the hypothesis alpha_v Pr(v in I_H) + beta_v E|N_H(v) /\\ I_H| >= 1
    for every v in their induced subgraph H, read from g's adjacency and
    not built, takes

        tau = min( min_v (1 - w(v)) / Pr(v in I_H),
                   min_v gamma(v) - w(G) ),

    slices [w(G), w(G) + tau) into consecutive blocks of length
    Pr(I_H = I) * tau in the canonical set order (the empty set receives
    measure but colours nobody), and removes vertices with w(v) >= 1 up to
    tolerance.  Termination within |V(G)| iterations is guaranteed while
    the hypothesis holds; exceeding that is an internal error.
    """
    n = g.n
    if len(weights.alpha) != n:
        raise InputError("weights do not match the graph")
    parts: dict[VertexSet, list[Interval]] = {}
    w_total = 0.0
    w_vertex = [0.0] * n
    taus: list[float] = []
    live = tuple(range(n))
    iterations = 0
    while live:
        iterations += 1
        if iterations > n:
            raise InternalError(
                "greedy colouring exceeded |V(G)| iterations; termination "
                "argument violated"
            )
        dist = oracle(g, live)
        occ = dist.occupancy(n)
        for v, s in zip(live, _oracle_scores(g, live, occ, weights)):
            if s < 1.0 - HYPOTHESIS_TOL:
                raise HypothesisError(
                    f"oracle distribution violates the weight hypothesis at "
                    f"vertex {v}: score {s!r} < 1"
                )
        tau_list = min(
            (1.0 - w_vertex[v]) / occ[v] if occ[v] > 0.0 else math.inf for v in live
        )
        tau_gamma = min(weights.gamma[v] - w_total for v in live)
        tau = min(tau_list, tau_gamma)
        if not math.isfinite(tau) or tau <= 0.0:
            raise InternalError(f"degenerate measure increment tau={tau!r}")
        # the cuts are the running sums start + length, left to right; a
        # block is kept when its end exceeds its start, as the validator
        # requires, so a length too small to move the running sum is not
        cuts = list(accumulate((p * tau for p in dist.probs), initial=w_total))
        for s, block in zip(dist.sets, pairwise(cuts)):
            if block[1] > block[0]:
                parts.setdefault(s, []).append(block)
        w_total = cuts[-1]
        for v in live:
            w_vertex[v] += occ[v] * tau
            if w_vertex[v] > 1.0 + CAP_TOL:
                raise InternalError(
                    f"vertex {v} accumulated measure {w_vertex[v]!r} > 1"
                )
        taus.append(tau)
        live = tuple(v for v in live if w_vertex[v] < 1.0 - SATURATE_TOL)
    for s, ivs in parts.items():
        parts[s] = tuple(ivs)
    return FractionalColouring(parts, w_total, tuple(taus))


def alpha_from_beta(lam: float, beta_v: float) -> float:
    """The alpha making the occupancy lower bound equal exactly 1."""
    if not (lam > 0 and beta_v > 0):
        raise InputError("lam and beta_v must be positive")
    log1l = math.log1p(lam)
    return beta_v * (1.0 + lam) ** ((1.0 + lam) / (beta_v * lam)) / (math.e * log1l)


def vertex_interval_bound(lam: float, degree: int) -> float:
    """Measure cap (1 + lam)/lam * exp(W(degree * log(1 + lam))).

    Equals alpha_v + beta_v * degree at the optimising weights; degree 0
    gives (1 + lam)/lam.
    """
    if not lam > 0:
        raise InputError("lam must be positive")
    return (1.0 + lam) / lam * math.exp(lambert_w(degree * math.log1p(lam)))


def choose_local_weights(g: Graph, epsilon: float) -> tuple[float, LocalWeights]:
    """Degree-local weights minimising the per-vertex measure cap.

    Sets lam = epsilon / 2 and, for each vertex of positive degree,

        beta_v  = (1 + lam)/lam * log(1 + lam) / (1 + W(deg(v) log(1 + lam)))
        alpha_v = beta_v * (1 + lam)^((1 + lam)/(beta_v lam)) / (e log(1 + lam))

    so that the hard-core occupancy bound equals 1 exactly and
    alpha_v + beta_v deg(v) = (1 + lam)/lam * e^(W(deg(v) log(1 + lam))).
    Isolated vertices get alpha_v = beta_v = (1 + lam)/lam, the smallest
    weight satisfying the greedy hypothesis when the oracle is the
    hard-core model.  InputError when lam underflows to 0 or (1 + lam)/lam
    overflows, as they do for epsilon below about 1.1e-308.
    """
    if not 0.0 < epsilon <= 4.0:
        raise InputError("epsilon must lie in (0, 4]")
    lam = epsilon / 2.0
    if not (lam > 0.0 and math.isfinite((1.0 + lam) / lam)):
        raise InputError(
            f"epsilon {epsilon!r} is too small: (1 + lambda)/lambda is not a finite float"
        )
    log1l = math.log1p(lam)
    alpha: list[tuple[float, float]] = []
    for v in range(g.n):
        d = g.degree(v)
        if d == 0:
            a = b = (1.0 + lam) / lam
        else:
            b = (1.0 + lam) / lam * log1l / (1.0 + lambert_w(d * log1l))
            a = alpha_from_beta(lam, b)
        alpha.append((a, b))
    return lam, LocalWeights.from_alpha(g, alpha)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating a fractional colouring against a bound."""

    ok: bool
    failures: tuple[str, ...]
    vertex_measure: tuple[float, ...]
    vertex_slack: tuple[float, ...]


def validate_colouring(g: Graph, col: FractionalColouring, bound) -> ValidationReport:
    """Check every colouring invariant plus containment w(v) in [0, bound(v)).

    ``bound`` is a scalar or a per-vertex sequence; a NaN bound is an
    InputError, and a non-finite total is reported.  The report lists every
    violation found; the bound check tolerates 1e-9 of floating-point
    slack, so callers wanting a strict comparison can tighten the bound
    themselves.  Slack per vertex is bound(v) minus the largest endpoint
    coloured with v.

    A part must be a strictly increasing tuple of vertex ids in 0..n-1; a
    malformed part is reported and credits no vertex with measure.

    Adjacent vertices are not compared interval by interval, because two
    checks made here already imply that they share no measure.  Every part
    is checked to be independent, so adjacent vertices never share a part.
    And if two intervals overlap by more than 1e-12, so does some
    consecutive pair of the sorted interval list, which is reported: the
    successor of the earlier-starting interval either overlaps it or starts
    (like everything after it) no earlier than 1e-12 before its end.
    """
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
    # per vertex: the interval-length list of each of its parts (shared, not
    # copied), and its smallest and largest interval, replaced only on < and
    # > as min and max replace, so that NaN endpoints give min's and max's
    # results
    lengths: list[list[list[float]]] = [[] for _ in range(n)]
    lows: list[Interval | None] = [None] * n
    highs: list[Interval | None] = [None] * n
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
                lengths[v].append(part_lengths)
                if lows[v] is None or low < lows[v]:
                    lows[v] = low
                if highs[v] is None or high > highs[v]:
                    highs[v] = high
    flat.sort()
    if flat:
        if abs(flat[0][0]) > 1e-9:
            failures.append(f"colouring does not start at 0 (starts {flat[0][0]!r})")
        for (a1, b1), (a2, b2) in pairwise(flat):
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
        mv = math.fsum(chain.from_iterable(lengths[v]))
        measures.append(mv)
        if mv < 1.0 - SATURATE_TOL:
            failures.append(f"vertex {v} has measure {mv!r} < 1")
        if lows[v] is not None and lows[v][0] < -1e-12:
            failures.append(f"vertex {v} coloured below 0")
        top = highs[v][1] if highs[v] is not None else 0.0
        slack = bounds[v] - top
        slacks.append(slack)
        if slack < -1e-9:
            failures.append(
                f"vertex {v} coloured up to {top!r}, beyond bound {bounds[v]!r}"
            )
    return ValidationReport(not failures, tuple(failures), tuple(measures), tuple(slacks))


def extract_independent_set(g: Graph, col: FractionalColouring) -> VertexSet:
    """Largest colour class of a complete colouring.

    Checks that every vertex has measure at least 1, up to the completion
    tolerance (StateError otherwise), then returns the largest part of
    positive measure, ties going to the lexicographically smallest set.
    The averaging argument guarantees size at least n / total, up to the
    completion tolerance.
    """
    measures = [0.0] * g.n
    for s, ivs in col.parts.items():
        mv = interval_measure(ivs)
        for v in s:
            measures[v] += mv
    for v, mv in enumerate(measures):
        if mv < 1.0 - SATURATE_TOL:
            raise StateError(f"colouring incomplete at vertex {v}: measure {mv!r}")
    best: VertexSet | None = None
    for s in sorted(col.parts):
        if interval_measure(col.parts[s]) <= 0.0:
            continue
        if best is None or len(s) > len(best):
            best = s
    if best is None:
        if g.n == 0:
            return ()
        raise StateError("colouring has no positive-measure part")
    for i, u in enumerate(best):
        for v in best[i + 1:]:
            if v in g.adjacency[u]:
                raise InternalError(f"extracted class has edge {u}-{v}")
    return best
