"""Correspondence (DP) colouring: covers, certification, and solving.

A cover of a base graph G is a graph H on "colour nodes" partitioned into
one list L(u) per base vertex u, where every same-list pair is implicitly
adjacent, and cross-list edges exist only between lists of adjacent base
vertices and form a matching per base edge.  An H-colouring picks one node
per list so that no two picks are adjacent; ordinary list colouring is the
special case where equal labels of adjacent vertices are matched.

The finishing-blow hypothesis (list sizes at least ell >= 3 and cross
degrees at most one eighth of the neighbouring ell) admits a local-lemma
certificate, which this module both evaluates numerically and realises
constructively by Moser-Tardos resampling.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import random
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Hashable, Mapping, Sequence

from .errors import (
    FormatError,
    HypothesisError,
    InputError,
    InternalError,
    SizeError,
)
from .graph import Graph, induced_subgraph, is_triangle_free, read_edge_list

DEFAULT_MAX_RESAMPLES = 10**6


def _normalise_ell(c: "Cover", ell) -> list[int]:
    if isinstance(ell, int):
        out = [ell] * c.base.n
    else:
        out = [int(x) for x in ell]
        if len(out) != c.base.n:
            raise InputError("need one list-size target per base vertex")
    if min(out, default=1) < 1:
        raise InputError(f"ell must be at least 1, got {min(out)}")
    return out


@dataclass(frozen=True)
class Cover:
    """Correspondence-colouring instance over ``base``.

    ``owner[c]`` is the base vertex whose list contains colour node c, and
    ``cross_edges`` holds the unordered pairs of colour nodes matched
    across lists.  Same-list adjacency is implicit and never stored, so
    the star degree of a node counts cross edges only.  Construction
    checks types and ranges, for covers from outside: the covers this
    module derives (list encodings, truncations, residuals) are built
    valid and skip it through `_unchecked_cover`.  The four cover axioms
    are checked by `validate_cover`, which therefore can report on
    malformed instances.
    """

    base: Graph
    owner: tuple[int, ...]
    cross_edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        owner = tuple(self.owner)
        if _types(owner) - {int}:
            bad = next(u for u in owner if type(u) is not int)
            raise InputError(f"owner {bad!r} is not an int")
        object.__setattr__(self, "owner", owner)
        for u in owner:
            if not 0 <= u < self.base.n:
                raise InputError(f"owner {u} out of range")
        object.__setattr__(
            self, "cross_edges", _canonical_edges(self.cross_edges, len(owner))
        )

    @property
    def num_colour_nodes(self) -> int:
        return len(self.owner)

    @cached_property
    def lists(self) -> tuple[tuple[int, ...], ...]:
        """Colour nodes per base vertex, sorted."""
        out: list[list[int]] = [[] for _ in range(self.base.n)]
        for node, u in enumerate(self.owner):
            out[u].append(node)
        return tuple(tuple(lst) for lst in out)

    @cached_property
    def _truncations(self) -> dict:
        """`truncate_lists` results by per-vertex ell, so that certifying
        and solving one cover truncate it once."""
        return {}


def _unchecked_cover(base: Graph, owner: tuple[int, ...], cross_edges: frozenset) -> Cover:
    """A Cover whose caller built its owners in range and its cross edges
    as a frozenset of pairs (a, b) with a < b, without the checks."""
    c = object.__new__(Cover)
    object.__setattr__(c, "base", base)
    object.__setattr__(c, "owner", owner)
    object.__setattr__(c, "cross_edges", cross_edges)
    return c


def _canonical_edges(edges, num_nodes: int) -> frozenset[tuple[int, int]]:
    """The cross edges of a cover from outside as pairs (a, b) with a < b,
    checked edge by edge so that an error names the first bad edge in
    iteration order."""
    canon = set()
    for e in edges:
        try:
            a, b = e
        except (TypeError, ValueError):
            a = b = None
        if type(a) is not int or type(b) is not int:
            raise InputError(f"cross edge {e!r} is not a pair of ints")
        if a == b:
            raise InputError(f"cross edge ({a},{b}) is a loop")
        if not (0 <= a < num_nodes and 0 <= b < num_nodes):
            raise InputError(f"cross edge ({a},{b}) out of range")
        canon.add((a, b) if a < b else (b, a))
    return frozenset(canon)


@dataclass(frozen=True)
class CoverReport:
    ok: bool
    violations: tuple[str, ...]


def validate_cover(c: Cover) -> CoverReport:
    """Check the four cover axioms, reporting every violation found.

    The list and adjacency violations come first, then the matching ones,
    each in canonical edge order.
    """
    owner = c.owner
    base_adj = [set(nbrs) for nbrs in c.base.adjacency]
    violations = []
    matching = []
    # matching axiom: per base edge, no node may have two partners in one list
    partners: dict[tuple[int, int], int] = {}  # (node, other list's vertex) -> count
    for a, b in sorted(c.cross_edges):
        ua, ub = owner[a], owner[b]
        if ua == ub:
            violations.append(f"cross edge ({a},{b}) joins nodes of one list ({ua})")
            continue
        if ub not in base_adj[ua]:
            violations.append(
                f"cross edge ({a},{b}) joins lists of non-adjacent vertices {ua},{ub}"
            )
        for key in ((a, ub), (b, ua)):
            seen = partners[key] = partners.get(key, 0) + 1
            if seen > 1:
                matching.append(
                    f"node {key[0]} has {seen} cross partners in the list of "
                    f"vertex {key[1]}; matching violated"
                )
    violations += matching
    return CoverReport(not violations, tuple(violations))


def from_list_assignment(
    g: Graph, lists: Sequence[Sequence[Hashable]]
) -> tuple[Cover, tuple[Hashable, ...]]:
    """Cover encoding an ordinary list assignment, plus node labels.

    One colour node per (vertex, label) pair; equal labels of adjacent
    vertices are matched.  An H-colouring of the result corresponds
    exactly to a proper list colouring.  Returns the cover and the label
    of each colour node, each list's labels in sorted order; InputError
    when a list's labels do not sort together (strings beside numbers).
    """
    if len(lists) != g.n:
        raise InputError("need one list per vertex")
    owner: list[int] = []
    labels: list[Hashable] = []
    node_of: list[dict[Hashable, int]] = []
    for v in range(g.n):
        try:
            labs = sorted(set(lists[v]))
        except TypeError:
            raise InputError(
                f"list of vertex {v} must hold hashable labels that sort together"
            ) from None
        node_of.append(dict(zip(labs, range(len(owner), len(owner) + len(labs)))))
        owner.extend(repeat(v, len(labs)))
        labels.extend(labs)
    cross = set()
    for u, v in g.edges():  # u < v, so u's nodes have the lower ids
        tu, tv = node_of[u], node_of[v]
        cross.update([(tu[lab], tv[lab]) for lab in tu.keys() & tv.keys()])
    return _unchecked_cover(g, tuple(owner), frozenset(cross)), tuple(labels)


@dataclass(frozen=True)
class HypothesisReport:
    ok: bool
    violations: tuple[str, ...]
    max_star_degree: int
    min_list_size: int


def finishing_blow_hypothesis(c: Cover, ell) -> HypothesisReport:
    """Check ell >= 3, |L(u)| >= ell(u), and the cross-degree condition.

    The cross-degree condition requires deg*(c') <= min_{v ~ u} ell(v) / 8
    for every base vertex u and node c' in L(u); for isolated u the
    condition is vacuous (such nodes have no cross edges anyway).
    """
    ell_v = _normalise_ell(c, ell)
    star = [0] * c.num_colour_nodes
    for a, b in c.cross_edges:
        star[a] += 1
        star[b] += 1
    max_star = max(star, default=0)
    violations = []
    for u, (lst, nbrs) in enumerate(zip(c.lists, c.base.adjacency)):
        if ell_v[u] < 3:
            violations.append(f"ell({u}) = {ell_v[u]} < 3")
        if len(lst) < ell_v[u]:
            violations.append(f"|L({u})| = {len(lst)} < ell({u}) = {ell_v[u]}")
        if not nbrs:
            continue
        cap = min(map(ell_v.__getitem__, nbrs)) / 8.0
        if max_star > cap:
            for node in lst:
                if star[node] > cap:
                    violations.append(
                        f"node {node} in L({u}) has star degree {star[node]} > {cap}"
                    )
    return HypothesisReport(
        not violations, tuple(violations), max_star, min(map(len, c.lists), default=0)
    )


def truncate_lists(c: Cover, ell) -> tuple[Cover, tuple[int, ...]]:
    """Keep the lexicographically first ell(u) nodes per list.

    Returns the truncated cover (nodes renumbered densely) and the map
    from new node ids to old ones.  The result is kept on ``c``, so a
    second call with the same targets returns the same objects.
    """
    ell_v = _normalise_ell(c, ell)
    key = tuple(ell_v)
    if key not in c._truncations:
        keep: list[int] = []
        for u, lst in enumerate(c.lists):
            if len(lst) < ell_v[u]:
                raise InputError(f"list of vertex {u} shorter than ell({u})")
            keep.extend(lst[: ell_v[u]])
        keep.sort()
        c._truncations[key] = (_restrict(c, c.base, range(c.base.n), keep), tuple(keep))
    return c._truncations[key]


def _restrict(c: Cover, base: Graph, base_map, keep: list[int]) -> Cover:
    """The cover over ``base`` on the sorted colour nodes ``keep`` of ``c``.

    Node ``keep[i]`` becomes node i, owned by ``base_map[old owner]``; the
    cross edges with both ends kept carry over, still canonical because
    the renumbering keeps the order.
    """
    new_id = dict(zip(keep, range(len(keep))))
    owner = tuple(map(base_map.__getitem__, map(c.owner.__getitem__, keep)))
    cross = frozenset([
        (new_id[a], new_id[b])
        for a, b in c.cross_edges
        if a in new_id and b in new_id
    ])
    return _unchecked_cover(base, owner, cross)


@dataclass(frozen=True)
class LllReport:
    """Numeric local-lemma certificate for the finishing-blow hypothesis.

    Evaluated on the ell-truncated cover with weights
    x(c1c2) = 3 / (ell(u1) * ell(u2)).  ``proof_slack`` is the minimum of
    x * exp(-1.4 * S) - Pr over cross edges, with S the weight sum over
    the dependency set (edges sharing either list, the edge itself
    included); ``glll_slack`` is the same for the raw product form
    x * prod (1 - x') over the dependency set minus the edge itself.
    """

    certified: bool
    proof_slack: float | None
    glll_slack: float | None
    max_x: float
    num_bad_events: int


def lll_certify(c: Cover, ell) -> LllReport:
    """Verify the local-lemma hypothesis edge by edge on the truncated cover.

    Raises HypothesisError when the finishing-blow hypothesis fails.
    """
    report = finishing_blow_hypothesis(c, ell)
    if not report.ok:
        raise HypothesisError(
            "finishing-blow hypothesis fails: " + "; ".join(report.violations[:3])
        )
    ell_v = _normalise_ell(c, ell)
    trunc, _ = truncate_lists(c, ell_v)
    if not trunc.cross_edges:
        return LllReport(True, None, None, 0.0, 0)
    # Every edge between the lists of u1 and u2 has the same weight and the
    # same slack, so the slacks are taken once per list pair; the sums are
    # accumulated edge by edge in canonical edge order.
    vertex_sum = [0.0] * trunc.base.n
    vertex_logsum = [0.0] * trunc.base.n
    pairs: dict[tuple[int, int], list[float]] = {}  # x, log(1 - x), sum, log sum
    owner = trunc.owner
    for a, b in sorted(trunc.cross_edges):
        ua, ub = owner[a], owner[b]
        key = (ua, ub) if ua < ub else (ub, ua)
        pair = pairs.get(key)
        if pair is None:
            xe = 3.0 / (ell_v[ua] * ell_v[ub])
            pair = pairs[key] = [xe, math.log1p(-xe), 0.0, 0.0]
        xe, lg = pair[0], pair[1]
        vertex_sum[ua] += xe
        vertex_sum[ub] += xe
        vertex_logsum[ua] += lg
        vertex_logsum[ub] += lg
        pair[2] += xe
        pair[3] += lg
    proof_slack = math.inf
    glll_slack = math.inf
    max_x = 0.0
    for (ua, ub), (xe, lg, pair_sum, pair_logsum) in pairs.items():
        max_x = max(max_x, xe)
        prob = 1.0 / (ell_v[ua] * ell_v[ub])
        dep_sum = vertex_sum[ua] + vertex_sum[ub] - pair_sum
        proof_slack = min(proof_slack, xe * math.exp(-1.4 * dep_sum) - prob)
        dep_log = vertex_logsum[ua] + vertex_logsum[ub] - pair_logsum
        glll_slack = min(glll_slack, xe * math.exp(dep_log - lg) - prob)
    certified = max_x < 0.5 and proof_slack >= 0.0
    return LllReport(certified, proof_slack, glll_slack, max_x, len(trunc.cross_edges))


def verify_dp_colouring(c: Cover, choice: Mapping[int, int]) -> tuple[bool, str]:
    """Independent check that ``choice`` is an H-colouring of the cover.

    Deliberately dumb: one node per base vertex, owned by that vertex, and
    no cross edge with both ends chosen.  Two vertices cannot share a node,
    since it is owned by one of them.  A vertex or node that is not an int
    fails the check too.
    """
    for u, node in choice.items():
        if type(u) is not int:
            return False, f"vertex {u!r} is not an int"
        if type(node) is not int:
            return False, f"node {node!r} of vertex {u} is not an int"
    if sorted(choice) != list(range(c.base.n)):
        return False, "choice does not assign exactly the base vertices"
    for u, node in choice.items():
        if not 0 <= node < c.num_colour_nodes:
            return False, f"node {node} out of range"
        if c.owner[node] != u:
            return False, f"node {node} not owned by vertex {u}"
    chosen = set(choice.values())
    for a, b in c.cross_edges:
        if a in chosen and b in chosen:
            return False, f"cross edge ({a},{b}) has both ends chosen"
    return True, "ok"


def solve(
    c: Cover,
    seed: int = 0,
    max_resamples: int = DEFAULT_MAX_RESAMPLES,
    ell=None,
) -> dict[int, int]:
    """Moser-Tardos resampling to an H-colouring.

    Samples one node per list uniformly (from the ell-truncated list when
    ``ell`` is given), then repeatedly resamples both endpoints of the
    first violated cross edge in canonical edge order until no bad event
    holds.  Deterministic for a fixed seed.  Exceeding ``max_resamples``
    (>= 0) raises a SizeError, never expected on certified instances.
    """
    if max_resamples < 0:
        raise InputError(f"max_resamples must be at least 0, got {max_resamples}")
    node_map = None
    work = c
    if ell is not None:
        work, node_map = truncate_lists(c, ell)
    for u in range(work.base.n):
        if not work.lists[u]:
            raise InputError(f"vertex {u} has an empty colour list")
    rng = random.Random(seed)
    choice = {u: rng.choice(work.lists[u]) for u in range(work.base.n)}
    chosen = set(choice.values())
    # The heap holds every violated edge (one is pushed whenever a resample
    # chooses its second end) and maybe edges no longer violated, dropped
    # when they surface, so its smallest violated entry is the first
    # violated edge in canonical order.
    violated = [e for e in work.cross_edges if e[0] in chosen and e[1] in chosen]
    heapq.heapify(violated)
    incident: dict[int, list[tuple[int, int]]] = defaultdict(list)
    if violated:
        for e in work.cross_edges:
            incident[e[0]].append(e)
            incident[e[1]].append(e)
    resamples = 0
    while violated:
        e = heapq.heappop(violated)
        if not (e[0] in chosen and e[1] in chosen):
            continue
        resamples += 1
        if resamples > max_resamples:
            raise SizeError(f"gave up after {max_resamples} resamples")
        for node in e:
            u = work.owner[node]
            chosen.discard(choice[u])
            new = choice[u] = rng.choice(work.lists[u])
            chosen.add(new)
            for f in incident[new]:
                if f[0] in chosen and f[1] in chosen:
                    heapq.heappush(violated, f)
    if node_map is not None:
        choice = {u: node_map[node] for u, node in choice.items()}
    ok, msg = verify_dp_colouring(c, choice)
    if not ok:
        raise InternalError(f"solver produced an invalid colouring: {msg}")
    return choice


def _random_partial(c: Cover, rng: random.Random) -> dict[int, int]:
    """Phase 1: one uniform draw per non-empty list, in vertex order.

    A draw is kept unless it is a cross partner of an earlier kept draw;
    returns the kept draws as base vertex -> colour node.  Whether a draw
    is kept never changes a later draw, so all are drawn first and only
    the cross edges between two draws are looked at.  O(sum of deg*).
    """
    draws = [rng.choice(lst) for lst in c.lists if lst]
    drawn = set(draws)
    partners: dict[int, list[int]] = defaultdict(list)
    for a, b in c.cross_edges:
        if a in drawn and b in drawn:
            partners[a].append(b)
            partners[b].append(a)
    chosen: dict[int, int] = {}
    banned: set[int] = set()
    for node in draws:
        if node not in banned:
            chosen[c.owner[node]] = node
            banned.update(partners[node])
    return chosen


def residual_cover(c: Cover, chosen: Mapping[int, int]):
    """The cover induced on the uncoloured vertices after ``chosen``.

    Removes the coloured vertices from the base graph and the H-closed
    neighbourhood of the chosen nodes from the lists.  Returns the new
    cover, the map new colour node -> old colour node, and the map old
    base vertex -> new base vertex.
    """
    picked = set(chosen.values())
    banned = set(picked)
    for a, b in c.cross_edges:
        if a in picked:
            banned.add(b)
        if b in picked:
            banned.add(a)
    keep_vertices = [u for u in range(c.base.n) if u not in chosen]
    sub_base, base_map = induced_subgraph(c.base, keep_vertices)
    keep_nodes = [
        node
        for node, u in enumerate(c.owner)
        if u not in chosen and node not in banned
    ]
    return _restrict(c, sub_base, base_map, keep_nodes), tuple(keep_nodes), base_map


@dataclass(frozen=True)
class TwoPhaseResult:
    colouring: dict[int, int] | None
    rounds_used: int
    certified: bool
    diagnostics: dict


def two_phase_colour(
    c: Cover,
    ell,
    rounds: int = 10,
    seed: int = 0,
    max_resamples: int = DEFAULT_MAX_RESAMPLES,
) -> TwoPhaseResult:
    """Random partial colouring followed by the certified finisher.

    Phase 1 draws one uniform node per list and greedily keeps the
    non-conflicting draws, forming a partial colouring; phase 2 checks the
    finishing-blow hypothesis on the residual cover and, when it passes,
    completes the colouring with the resampling solver.  When the
    hypothesis fails, a bounded uncertified solve of the residual instance
    is still attempted before restarting, so small instances succeed even
    without a certificate.  No asymptotic list-size guarantee is promised;
    after ``rounds`` (at least 1) failed restarts a diagnostic report is
    returned.  Phase 1 and the residual cover cost O(sum of deg* + m) per
    attempt, plus the solver.  Every colouring produced is verified
    against the original cover.
    """
    if rounds < 1:
        raise InputError(f"rounds must be at least 1, got {rounds}")
    if max_resamples < 0:
        raise InputError(f"max_resamples must be at least 0, got {max_resamples}")
    if not is_triangle_free(c.base):
        raise HypothesisError("two_phase_colour requires a triangle-free base graph")
    ell_v = _normalise_ell(c, ell)
    diagnostics: dict = {}
    for attempt in range(rounds):
        chosen = _random_partial(c, random.Random(seed * 1_000_003 + attempt))
        residual, node_map, _ = residual_cover(c, chosen)
        remaining = [u for u in range(c.base.n) if u not in chosen]
        ell_res = [ell_v[u] for u in remaining]
        report = finishing_blow_hypothesis(residual, ell_res)
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
            sub_choice = solve(residual, seed=seed * 7 + attempt, max_resamples=max_resamples, ell=ell_res)
        elif all(residual.lists):
            try:
                sub_choice = solve(
                    residual, seed=seed * 7 + attempt, max_resamples=max_resamples
                )
            except SizeError:
                sub_choice = None
        if sub_choice is not None:
            colouring = dict(chosen)
            for u_new, node_new in sub_choice.items():
                colouring[remaining[u_new]] = node_map[node_new]
            ok, msg = verify_dp_colouring(c, colouring)
            if not ok:
                raise InternalError(f"two-phase produced an invalid colouring: {msg}")
            return TwoPhaseResult(colouring, attempt + 1, report.ok, diagnostics)
    return TwoPhaseResult(None, rounds, False, diagnostics)


# ---------------------------------------------------------------------------
# Cover files: {"graph": <edge-list path>, "lists": {...}} for list mode or
# {"graph": <path>, "owner": [...], "cross_edges": [[a, b], ...]} in general.

def _types(values) -> set[type]:
    return set(map(type, values))


def load_cover(filename) -> tuple[Cover, tuple[Hashable, ...] | None]:
    """Read a cover file; returns (cover, labels) with labels None in general mode.

    A malformed cover or graph file, one that is not UTF-8 or nests too
    deeply for the JSON reader, or a graph name that no file can have, is
    a `FormatError`.  A general-form cover must also satisfy the cover
    axioms (`validate_cover`), or it is a `HypothesisError`; a list-form
    cover satisfies them by construction.
    """
    with open(filename, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise FormatError(f"bad cover file: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("graph"), str):
        raise FormatError("cover file must be an object with a 'graph' file name")
    graph_path = os.path.join(os.path.dirname(os.path.abspath(filename)), data["graph"])
    g = read_edge_list(graph_path)
    if "lists" in data:
        table = data["lists"]
        if not isinstance(table, dict):
            raise FormatError("'lists' must map vertex ids to lists of labels")
        unknown = set(table) - {str(v) for v in range(g.n)}
        if unknown:
            raise FormatError(f"'lists' names vertices not in the graph: {sorted(unknown)}")
        lists = []
        for v in range(g.n):
            lst = table.get(str(v), [])
            types = _types(lst) if isinstance(lst, list) else None
            if types is None or not (types <= {str} or types <= {int, float}):
                raise FormatError(
                    f"list of vertex {v} must hold only strings or only numbers"
                )
            if float in types and not all(
                math.isfinite(x) for x in lst if type(x) is float
            ):
                raise FormatError(f"list of vertex {v} holds NaN or an infinite number")
            lists.append(lst)
        cover, labels = from_list_assignment(g, lists)
        return cover, labels
    if "owner" in data and "cross_edges" in data:
        owner, cross = data["owner"], data["cross_edges"]
        if not (isinstance(owner, list) and _types(owner) <= {int}):
            raise FormatError("'owner' must be a list of vertex ids")
        if not (
            isinstance(cross, list)
            and _types(cross) <= {list}
            and set(map(len, cross)) <= {2}
            and _types(chain.from_iterable(cross)) <= {int}
        ):
            raise FormatError("'cross_edges' must be a list of colour-node pairs")
        cover = Cover(g, tuple(owner), frozenset(tuple(e) for e in cross))
        report = validate_cover(cover)
        if not report.ok:
            raise HypothesisError(
                "cover violates the cover axioms: " + "; ".join(report.violations[:3])
            )
        return cover, None
    raise FormatError("cover file needs either 'lists' or 'owner'+'cross_edges'")


def dump_cover(c: Cover, filename, graph_filename) -> None:
    """Write a cover in general form, referencing an edge-list file."""
    data = {
        "graph": os.path.relpath(
            os.path.abspath(graph_filename), os.path.dirname(os.path.abspath(filename))
        ),
        "owner": list(c.owner),
        "cross_edges": sorted([a, b] for a, b in c.cross_edges),
    }
    with open(filename, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
