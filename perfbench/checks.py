"""Output checkers for each ``hcchroma`` subcommand.

They re-derive every claim from the input files with code of their own and
never call the package's validators.  Checks are semantic with stated
tolerances, not byte comparisons, so a legitimate reordering of a float
sum in the program is not reported as a failure.  Each checker raises
``CheckError`` with a one-line reason.
"""

from __future__ import annotations

import json
import math
import os

TOL = 1e-9


class CheckError(Exception):
    """An output that contradicts its input."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def read_graph(path: str) -> list[int]:
    """Bitmask adjacency of an ``n m`` edge-list file."""
    with open(path, encoding="utf-8") as fh:
        rows = [ln.split() for ln in fh if ln.strip() and not ln.startswith("#")]
    n = int(rows[0][0])
    adj = [0] * n
    for u, v in ((int(a), int(b)) for a, b in rows[1:]):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _members(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def _independent(members, adj: list[int]) -> bool:
    mask = 0
    for v in members:
        mask |= 1 << v
    return not any(adj[v] & mask for v in members)


def _lambert_w(x: float) -> float:
    """w >= 0 with w * e^w = x, by Newton's method from log(1 + x)."""
    w = math.log1p(x)
    for _ in range(100):
        step = (w * math.exp(w) - x) / (math.exp(w) * (w + 1.0))
        w -= step
        if abs(step) <= 1e-15 * (1.0 + w):
            break
    return w


def colour_bound(epsilon: float, degree: int) -> float:
    """The paper's per-vertex cap (1 + lam)/lam * exp(W(d log(1 + lam))), lam = epsilon/2."""
    lam = epsilon / 2.0
    return (1.0 + lam) / lam * math.exp(_lambert_w(degree * math.log1p(lam)))


def check_frac_colour(out: dict, adj: list[int], epsilon: float) -> None:
    """Parts independent, intervals tile [0, total) within TOL, every vertex
    has measure >= 1 - TOL and is coloured below its bound + TOL."""
    n = len(adj)
    total = float(out["total"])
    lengths: list[list[float]] = [[] for _ in range(n)]
    top = [0.0] * n
    flat = []
    for part in out["parts"]:
        members = part["set"]
        _require(all(0 <= v < n for v in members), f"part {members} has a vertex out of range")
        _require(len(set(members)) == len(members), f"part {members} repeats a vertex")
        _require(_independent(members, adj), f"part {members} is not independent")
        for a, b in part["intervals"]:
            _require(b > a, f"empty interval [{a}, {b}) on part {members}")
            flat.append((a, b))
            for v in members:
                lengths[v].append(b - a)
                top[v] = max(top[v], b)
    flat.sort()
    _require(bool(flat) or total <= TOL, "no intervals but a positive total")
    if flat:
        _require(abs(flat[0][0]) <= TOL, f"intervals start at {flat[0][0]!r}, not 0")
        for (a1, b1), (a2, b2) in zip(flat, flat[1:]):
            _require(a2 >= b1 - TOL, f"intervals [{a1}, {b1}) and [{a2}, {b2}) overlap")
            _require(a2 <= b1 + TOL, f"gap between {b1!r} and {a2!r}")
        _require(abs(flat[-1][1] - total) <= TOL, f"intervals end at {flat[-1][1]!r}, not {total!r}")
    for v in range(n):
        measure = math.fsum(lengths[v])
        _require(measure >= 1.0 - TOL, f"vertex {v} has measure {measure!r} < 1")
        bound = colour_bound(epsilon, adj[v].bit_count())
        _require(top[v] <= bound + TOL, f"vertex {v} coloured up to {top[v]!r} > bound {bound!r}")


def _check_neighbour_sums(out: dict, adj: list[int]) -> list[float]:
    occ = [float(x) for x in out["occupancy"]]
    _require(len(occ) == len(adj), "occupancy has the wrong length")
    nbr = out["neighbour_occupancy"]["1"]
    for v, got in enumerate(nbr):
        want = math.fsum(occ[u] for u in _members(adj[v]))
        _require(abs(got - want) <= TOL * (1.0 + want),
                 f"neighbour occupancy of {v} is {got!r}, recount gives {want!r}")
    return occ


def check_hardcore_stats(out: dict, adj: list[int], fact_check: bool, sampled: bool) -> None:
    """Exact mode: occupancies in (0, 1) and fact-check residuals below TOL.
    Sampled mode: occupancies are multiples of 1/trials in [0, 1].  Both:
    the neighbour sums agree with a recount within TOL (relative)."""
    _require(out["mode"] == ("sampled" if sampled else "exact"), f"unexpected mode {out['mode']!r}")
    occ = _check_neighbour_sums(out, adj)
    if sampled:
        trials = out["trials"]
        for v, p in enumerate(occ):
            _require(0.0 <= p <= 1.0 and abs(p * trials - round(p * trials)) <= TOL * trials,
                     f"sampled occupancy {p!r} of {v} is not a frequency over {trials} chains")
    else:
        _require(all(0.0 < p < 1.0 for p in occ), "an exact occupancy lies outside (0, 1)")
        _require(math.isfinite(out["log_Z"]) and out["log_Z"] > 0.0, "log_Z is not positive")
    if fact_check:
        res = out["fact_check"]
        _require(res["fact1_residual"] < TOL and res["fact2_residual"] < TOL,
                 f"fact-check residuals {res} are not below {TOL}")


def check_semibip(out: dict, adj: list[int], sampled: bool) -> None:
    """A is independent, (A, B) partitions the vertices, and the boundary
    edge count and average degree match a recount."""
    n = len(adj)
    a_side, b_side = out["A"], out["B"]
    _require(sorted(a_side + b_side) == list(range(n)), "A and B do not partition the vertices")
    _require(_independent(a_side, adj), "A is not independent")
    boundary = sum(adj[v].bit_count() for v in a_side)
    _require(out["boundary_edges"] == boundary,
             f"boundary_edges {out['boundary_edges']} but recount gives {boundary}")
    _require(abs(out["avg_degree"] - 2.0 * boundary / n) <= TOL, "avg_degree disagrees with recount")
    _require(out["mode"] == ("sampled" if sampled else "exact"), f"unexpected mode {out['mode']!r}")
    if not sampled:
        _require(0.0 < out["expected_boundary_edges"] <= sum(a.bit_count() for a in adj) / 2,
                 "expected boundary edge count out of range")


def check_dp_solve(out: dict, cover_path: str, certify: bool, two_phase: bool) -> None:
    """The chosen colouring is re-verified against the cover file: one
    colour per base vertex from its own list and no conflict along a base
    edge (general form: no cross edge with both ends chosen)."""
    with open(cover_path, encoding="utf-8") as fh:
        cover = json.load(fh)
    adj = read_graph(os.path.join(os.path.dirname(cover_path), cover["graph"]))
    n = len(adj)
    choice = {int(u): node for u, node in out["choice"].items()}
    _require(sorted(choice) == list(range(n)), "choice does not colour exactly the base vertices")
    _require(len(set(choice.values())) == n, "choice repeats a colour node")
    if "owner" in cover:
        owner = cover["owner"]
        for u, node in choice.items():
            _require(0 <= node < len(owner) and owner[node] == u, f"node {node} is not in the list of {u}")
        chosen = set(choice.values())
        for a, b in cover["cross_edges"]:
            _require(not (a in chosen and b in chosen), f"cross edge ({a},{b}) has both ends chosen")
    else:
        labels = {int(u): lab for u, lab in out["labels"].items()}
        for u in range(n):
            _require(labels[u] in cover["lists"][str(u)], f"label {labels[u]!r} is not in the list of {u}")
            for v in _members(adj[u]):
                _require(labels[u] != labels[v], f"adjacent {u},{v} share label {labels[u]!r}")
    if certify:
        _require(out["certificate"]["bad_events"] >= 0, "certificate lacks a bad-event count")
    if two_phase:
        _require(out["two_phase"]["rounds_used"] >= 1, "two-phase reports no round")


def check_construct(out: dict, delta: int, level: int) -> None:
    """The instance is reported non-colourable and its properties hold."""
    _require(out["delta"] == delta and out["level"] == level, "report is for other parameters")
    _require(out["properties_ok"] is True, f"properties_ok is {out['properties_ok']!r}")
    _require(out["not_colourable"] is True, f"not_colourable is {out['not_colourable']!r}")
