"""Verdicts of `validate_colouring` on valid and deliberately corrupted colourings.

Each corruption breaks one invariant of a valid greedy colouring; the
validator must reject every one and name the broken invariant.  The
validator derives "adjacent vertices share no measure" from part
independence and interval disjointness; the per-edge sweep in
`helpers.reference_edge_failures` checks it directly, and on every
colouring here a failure it finds must also fail the validator.  Every
report must equal `helpers.reference_validate_colouring`'s, also on the
pipeline runs and on colourings with NaN or infinite endpoints.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hcchroma import Graph, InputError, cycle, edgeless, random_triangle_free
from hcchroma.fractional import (
    FractionalColouring,
    LocalWeights,
    choose_local_weights,
    greedy_fractional_colouring,
    hard_core_oracle,
    interval_measure,
    uniform_set_oracle,
    validate_colouring,
    vertex_interval_bound,
)

import helpers

C5_MAX_SETS = [(0, 2), (1, 3), (2, 4), (0, 3), (1, 4)]
MIN_LENGTH = 1e-6  # corruptions only move intervals at least this long


def hard_core_colouring(g, eps):
    lam, weights = choose_local_weights(g, eps)
    col = greedy_fractional_colouring(g, weights, hard_core_oracle(lam))
    return col, [vertex_interval_bound(lam, g.degree(v)) for v in range(g.n)]


def c5_colouring(base):
    g = cycle(5)
    if base == "uniform":
        weights = LocalWeights.from_alpha(g, [(2.5, 0.0)] * 5)
        col = greedy_fractional_colouring(g, weights, uniform_set_oracle(C5_MAX_SETS))
        return g, col, [2.5 + 1e-9] * 5
    return (g, *hard_core_colouring(g, 2.0))


def flat_intervals(parts):
    return sorted((a, b, s) for s, ivs in parts.items() for a, b in ivs)


def move_part(parts, old, new):
    """Re-key part ``old`` as ``new``, merging into an existing part."""
    ivs = parts.pop(old)
    parts[new] = tuple(sorted(parts.get(new, ()) + ivs))


def corrupt(kind, g, col, bounds, pick):
    """One corrupted copy: (parts, total, bounds, fragment of the expected failure)."""
    parts = dict(col.parts)
    total = col.total
    bounds = list(bounds)
    edges = list(g.edges())
    flat = flat_intervals(parts)
    if kind == "overlap":
        cands = [k for k in range(len(flat) - 1) if flat[k + 1][1] - flat[k + 1][0] > MIN_LENGTH]
        assume(cands)
        a, b, s = flat[cands[pick % len(cands)]]
        na, nb, _ = flat[cands[pick % len(cands)] + 1]
        parts[s] = tuple((a, b + (nb - na) / 2) if iv == (a, b) else iv for iv in parts[s])
        return parts, total, bounds, "overlapping intervals"
    if kind == "dependent":
        assume(edges)
        u, v = edges[pick % len(edges)]
        s = sorted(parts)[pick % len(parts)]
        move_part(parts, s, tuple(sorted(set(s) | {u, v})))
        return parts, total, bounds, "is not independent"
    if kind == "gap":
        assume(len(flat) > 1)
        cut = flat[1 + pick % (len(flat) - 1)][0]
        for s, ivs in parts.items():
            parts[s] = tuple((a + 0.5, b + 0.5) if a >= cut else (a, b) for a, b in ivs)
        return parts, total + 0.5, bounds, "gap between"
    if kind == "short":
        v = pick % g.n
        s = max((s for s in parts if v in s), key=lambda s: interval_measure(parts[s]))
        assume(interval_measure(parts[s]) > MIN_LENGTH)
        move_part(parts, s, tuple(w for w in s if w != v))
        return parts, total, bounds, f"vertex {v} has measure"
    if kind == "above-bound":
        v = pick % g.n
        bounds[v] = max(b for s, ivs in parts.items() if v in s for _, b in ivs) - 0.25
        return parts, total, bounds, f"vertex {v} coloured up to"
    if kind == "adjacent-overlap":
        assume(edges)
        u, v = edges[pick % len(edges)]
        p = next(s for s in sorted(parts) if u in s)
        q = next(s for s in sorted(parts) if v in s)
        a, b = max(parts[p], key=lambda iv: iv[1] - iv[0])
        assume(b - a > MIN_LENGTH)
        parts[q] = tuple(sorted(parts[q] + ((a, b),)))
        return parts, total, bounds, "overlapping intervals"
    raise AssertionError(kind)


KINDS = ("overlap", "dependent", "gap", "short", "above-bound", "adjacent-overlap")


def report_key(report):
    """A report's fields, floats by repr so that NaN equals NaN."""
    return (
        report.ok,
        report.failures,
        tuple(map(repr, report.vertex_measure)),
        tuple(map(repr, report.vertex_slack)),
    )


def validate_like_reference(g, col, bounds):
    """`validate_colouring`'s report, checked equal to the reference's."""
    report = validate_colouring(g, col, bounds)
    assert report_key(report) == report_key(
        helpers.reference_validate_colouring(g, col, bounds)
    )
    return report


def check_corruption(kind, g, col, bounds, pick):
    parts, total, bad_bounds, fragment = corrupt(kind, g, col, bounds, pick)
    bad = FractionalColouring(parts, total)
    report = validate_like_reference(g, bad, bad_bounds)
    assert not report.ok
    assert any(fragment in f for f in report.failures), report.failures
    if kind == "adjacent-overlap":
        assert helpers.reference_edge_failures(g, bad)


def check_uncorrupted(g, col, bounds):
    report = validate_like_reference(g, col, bounds)
    assert report.ok == (not helpers.reference_edge_failures(g, col) and not report.failures)
    assert report.ok


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("base", ["uniform", "hard-core"])
@settings(max_examples=10, deadline=None)
@given(pick=st.integers(min_value=0, max_value=10**6))
def test_mutation_c5(base, kind, pick):
    g, col, bounds = c5_colouring(base)
    check_uncorrupted(g, col, bounds)
    check_corruption(kind, g, col, bounds, pick)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.floats(min_value=0.2, max_value=0.7),
    st.integers(min_value=0, max_value=1000),
    st.sampled_from([1.0, 2.0, 4.0]),
    st.sampled_from(KINDS),
    st.integers(min_value=0, max_value=10**6),
)
def test_mutation_random_triangle_free(n, p, seed, eps, kind, pick):
    g = random_triangle_free(n, p, seed)
    col, bounds = hard_core_colouring(g, eps)
    check_uncorrupted(g, col, bounds)
    check_corruption(kind, g, col, bounds, pick)


@pytest.mark.parametrize(
    "part", [(0, 0), (0, 3), (-1, 0), (1, 0)],
    ids=["repeated", "out-of-range", "negative", "decreasing"],
)
def test_malformed_part_is_a_failure(part):
    # the first part alone gives vertex 0 measure 1 if counted twice
    g = edgeless(2)
    col = FractionalColouring({part: ((0.0, 0.5),), (0, 1): ((0.5, 1.5),)}, 1.5)
    report = validate_like_reference(g, col, 2.0)
    assert not report.ok
    assert any("strictly increasing tuple of vertex ids" in f for f in report.failures)


def test_repeated_member_is_not_counted_twice():
    g = edgeless(1)
    col = FractionalColouring({(0, 0): ((0.0, 0.5),), (): ((0.5, 1.0),)}, 1.0)
    report = validate_like_reference(g, col, 2.0)
    assert not report.ok
    assert report.vertex_measure == (0.0,)


def test_non_finite_total_is_a_failure():
    col = FractionalColouring({(0,): ((0.0, math.inf),)}, math.inf)
    report = validate_like_reference(edgeless(1), col, math.inf)
    assert not report.ok
    assert any("not finite" in f for f in report.failures)


@pytest.mark.parametrize("bound", [math.nan, [1.0, math.nan]], ids=["scalar", "per-vertex"])
def test_nan_bound_is_rejected(bound):
    col = FractionalColouring({(0, 1): ((0.0, 1.0),)}, 1.0)
    with pytest.raises(InputError):
        validate_colouring(edgeless(2), col, bound)


NAN, INF = math.nan, math.inf
ODD_COLOURINGS = {
    # vertex 0 sits in two parts, so its running smallest and largest
    # interval are compared across parts as well as within one
    "nan-end": ({(0,): ((0.0, NAN),), (0, 2): ((0.5, 1.0), (1.0, 1.5))}, 1.5),
    "nan-start": ({(0,): ((NAN, 0.5),), (0, 2): ((0.5, 1.0),), (1,): ((0.0, 1.0),)}, 1.0),
    "nan-first-part": ({(0, 2): ((NAN, NAN), (0.0, 0.5)), (0,): ((0.5, 1.0),)}, 1.0),
    "nan-later-part": ({(0,): ((0.0, 0.5),), (0, 2): ((NAN, 1.0), (0.5, NAN))}, 1.0),
    "nan-after-negative": ({(0,): ((-1.0, 0.5),), (0, 2): ((NAN, 1.0),)}, 1.0),
    "nan-after-high": ({(0,): ((0.0, 5.0),), (0, 2): ((NAN, 1.0),)}, 5.0),
    "nan-total": ({(0, 1): ((0.0, 1.0),)}, NAN),
    "inf-end": ({(0,): ((0.0, INF),), (1, 2): ((0.0, 1.0),)}, INF),
    "minus-inf-start": ({(0, 1): ((-INF, 1.0),), (2,): ((1.0, 2.0),)}, 2.0),
    "inf-both": ({(0,): ((INF, INF),), (1,): ((-INF, -INF),)}, 1.0),
    "dependent-and-malformed": ({(0, 1, 1): ((0.0, 1.0),), (0, 1): ((1.0, 2.0),)}, 2.0),
    "empty-part": ({(): ((0.0, 1.0),), (0, 1, 2): ()}, 1.0),
}


@pytest.mark.parametrize("bound", [2.0, INF, [1.0, 1.5, 2.0]], ids=["scalar", "inf", "per-vertex"])
@pytest.mark.parametrize("name", sorted(ODD_COLOURINGS))
def test_odd_colourings_match_reference_validator(name, bound):
    # vertices 0 and 1 adjacent; vertex 2 isolated
    g = Graph.from_edges(3, [(0, 1)])
    parts, total = ODD_COLOURINGS[name]
    validate_like_reference(g, FractionalColouring(parts, total), bound)


def test_pipeline_runs_match_reference_validator(pipeline_runs):
    for g, eps, lam, weights, colouring in pipeline_runs:
        bounds = [vertex_interval_bound(lam, g.degree(v)) for v in range(g.n)]
        assert validate_like_reference(g, colouring, bounds).ok
