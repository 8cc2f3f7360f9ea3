import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hcchroma import (
    Graph,
    HypothesisError,
    InputError,
    SizeError,
    complete,
    complete_bipartite,
    cycle,
    edgeless,
    path,
    petersen,
    random_triangle_free,
    star,
)
from hcchroma import constructions, hardcore
from hcchroma.fractional import hard_core_oracle
from hcchroma.hardcore import (
    FactCheckReport,
    conditional_fact_check,
    enumerate_stats,
    glauber_sample,
    hcm_lower_bound,
    independent_set_masks,
    neighbour_occupancy,
)

import helpers

K2 = complete_bipartite(1, 1)


def test_enumeration_matches_brute_force():
    for g in (K2, cycle(5), star(3), petersen(), random_triangle_free(10, 0.3, 3)):
        ours = sorted(helpers.mask_to_vertex_set(m) for m in independent_set_masks(g))
        assert ours == sorted(helpers.brute_independent_sets(g))


def test_enumeration_canonical_order():
    masks = independent_set_masks(cycle(4))
    sets = [helpers.mask_to_vertex_set(m) for m in masks]
    assert sets == sorted(sets)
    assert sets[0] == ()


def test_listing_stops_above_the_set_budget(monkeypatch):
    # C5 has 11 independent sets: listed at a budget of 11, refused at 10
    # with the count, before any set is listed
    monkeypatch.setattr(hardcore, "SET_BUDGET", 11)
    assert len(independent_set_masks(cycle(5))) == 11
    monkeypatch.setattr(hardcore, "SET_BUDGET", 10)
    with pytest.raises(SizeError) as err:
        independent_set_masks(cycle(5))
    assert str(err.value) == "graph has 11 independent sets, above the listing budget 10"


def test_empty_graph_stats():
    stats = enumerate_stats(edgeless(0), 1.0)
    assert stats.log_partition == 0.0
    assert stats.occupancy == ()


def test_k2_stats():
    stats = enumerate_stats(K2, 1.0)
    assert abs(math.exp(stats.log_partition) - 3.0) <= 1e-12
    for v in range(2):
        assert abs(stats.occupancy[v] - 1 / 3) <= 1e-15
        assert abs(stats.neighbour_occupancy[v] - 1 / 3) <= 1e-15


def test_c5_stats():
    stats = enumerate_stats(cycle(5), 1.0)
    assert abs(math.exp(stats.log_partition) - 11.0) <= 1e-11
    for v in range(5):
        assert abs(stats.occupancy[v] - 3 / 11) <= 1e-15
        assert abs(stats.neighbour_occupancy[v] - 6 / 11) <= 1e-15


def test_cutoff_error_names_the_size_and_the_cutoff():
    with pytest.raises(SizeError) as err:
        enumerate_stats(complete(31), 1.0)
    assert str(err.value) == "graph has 31 vertices, above the exact-enumeration cutoff 30"
    stats = enumerate_stats(complete(31), 1.0, cutoff=31)  # explicit override
    assert abs(math.exp(stats.log_partition) - 32.0) <= 1e-9
    with pytest.raises(TypeError):  # keyword-only: a third positional is no cutoff
        enumerate_stats(complete(31), 1.0, 31)


def test_stats_match_rational_mode():
    for g in (K2, cycle(5), star(3), random_triangle_free(11, 0.3, 8)):
        for lam in (Fraction(1, 2), Fraction(1), Fraction(2)):
            exact = enumerate_stats(g, lam)
            fl = enumerate_stats(g, float(lam))
            for v in range(g.n):
                assert abs(fl.occupancy[v] - float(exact.occupancy[v])) <= 1e-13
                assert (
                    abs(fl.neighbour_occupancy[v] - float(exact.neighbour_occupancy[v]))
                    <= 1e-13
                )


def test_stats_match_brute_occupancy():
    g = random_triangle_free(9, 0.4, 5)
    z, occ = helpers.brute_occupancy(g, Fraction(2))
    stats = enumerate_stats(g, 2.0)
    assert abs(math.exp(stats.log_partition) - float(z)) <= 1e-9 * float(z)
    for v in range(g.n):
        assert abs(stats.occupancy[v] - float(occ[v])) <= 1e-13


def test_expected_size_identity():
    # sum of occupancies equals lambda Z'(lambda) / Z(lambda)
    g = cycle(5)
    lam = Fraction(3, 2)
    sets = helpers.brute_independent_sets(g)
    z = sum(lam ** len(s) for s in sets)
    zprime = sum(len(s) * lam ** (len(s) - 1) for s in sets if s)
    expected = float(lam * zprime / z)
    stats = enumerate_stats(g, float(lam))
    assert abs(math.fsum(stats.occupancy) - expected) <= 1e-12


def test_occupancy_capped_by_fugacity_ratio():
    for g in (cycle(5), star(3), petersen()):
        for lam in (0.25, 1.0, 2.0):
            stats = enumerate_stats(g, lam)
            for p in stats.occupancy:
                assert 0.0 <= p <= lam / (1 + lam) + 1e-15


def test_double_counting_exact():
    for g in (cycle(5), star(3), petersen(), random_triangle_free(12, 0.3, 2)):
        stats = enumerate_stats(g, 1.0)
        lhs = math.fsum(g.degree(v) * stats.occupancy[v] for v in range(g.n))
        rhs = math.fsum(stats.neighbour_occupancy)
        assert abs(lhs - rhs) <= 1e-12


def test_monotone_in_lambda_on_edgeless():
    g = edgeless(5)
    values = [enumerate_stats(g, lam).occupancy[0] for lam in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert abs(values[2] - 0.5) <= 1e-15


def test_fact_check_examples():
    report = conditional_fact_check(edgeless(1), 0.7)
    assert report.fact1_residual == 0.0
    report = conditional_fact_check(star(3), 1.0)
    assert max(report.fact1_residual, report.fact2_residual) <= 1e-12


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_fact_check_c5(lam):
    report = conditional_fact_check(cycle(5), lam)
    assert max(report.fact1_residual, report.fact2_residual) <= 1e-12


def test_fact_check_skips_distances_whose_weight_underflows():
    # at lam = 1e-300 every set of two or more vertices has a weight below
    # the smallest float, so some uncovered-neighbour counts j have a float
    # weight of 0.0
    report = conditional_fact_check(petersen(), 1e-300)
    assert max(report.fact1_residual, report.fact2_residual) <= 1e-12


def test_neighbour_occupancy_distances():
    stats = enumerate_stats(cycle(5), 1.0)
    assert type(stats.neighbour_occupancy) is tuple
    assert stats.to_json_dict()["neighbour_occupancy"] == {"1": list(stats.neighbour_occupancy)}
    assert neighbour_occupancy(cycle(5), stats.occupancy) == stats.neighbour_occupancy
    assert neighbour_occupancy(star(3), (0.5, 0.25, 0.125, 0.0)) == (0.375, 0.5, 0.5, 0.5)
    # an empty graph still has the one row, under the one key
    assert enumerate_stats(edgeless(0), 1.0).neighbour_occupancy == ()
    assert neighbour_occupancy(edgeless(0), ()) == ()
    assert enumerate_stats(edgeless(0), 1.0).to_json_dict()["neighbour_occupancy"] == {"1": []}


@pytest.mark.parametrize("g", [path(9), cycle(9), cycle(8)], ids=["path9", "cycle9", "cycle8"])
def test_neighbour_occupancy_at_every_distance_matches_networkx(g):
    # the statistics' one distance is 1: sums over each vertex's neighbours
    stats = enumerate_stats(g, 0.7)
    assert stats.neighbour_occupancy == helpers.reference_neighbour_occupancy(g, stats.occupancy)
    exact = enumerate_stats(g, Fraction(7, 10))
    assert exact.neighbour_occupancy == helpers.reference_neighbour_occupancy(g, exact.occupancy)
    assert all(type(x) is Fraction for x in exact.neighbour_occupancy)


def test_fact_check_requires_triangle_free():
    with pytest.raises(HypothesisError):
        conditional_fact_check(complete(3), 1.0)


def test_fugacity_validation():
    with pytest.raises(InputError):
        enumerate_stats(K2, 0.0)
    with pytest.raises(InputError):
        enumerate_stats(K2, -1.0)


def test_fugacity_must_be_finite_and_z_representable():
    for lam in (math.inf, math.nan):
        with pytest.raises(InputError):
            enumerate_stats(K2, lam)
        with pytest.raises(InputError):
            glauber_sample(K2, lam, 10, 0)
    assert math.isfinite(enumerate_stats(cycle(5), 1e100).log_partition)


@pytest.mark.parametrize("lam", [1e-300, 1e300])
@pytest.mark.parametrize("g", [cycle(5), petersen()], ids=["C5", "petersen"])
def test_extreme_fugacity_matches_rational_reference(g, lam):
    # at 1e300, Z exceeds every float; log Z and the occupancies do not
    ref = helpers.reference_enumerate_stats_rational(g, lam)
    exact = enumerate_stats(g, Fraction(lam))
    assert exact.occupancy == ref.occupancy
    assert exact.neighbour_occupancy == ref.neighbour_occupancy
    fl = enumerate_stats(g, lam)
    assert fl.occupancy == tuple(map(float, ref.occupancy))  # both correctly rounded
    assert all(map(_close, fl.neighbour_occupancy, map(float, ref.neighbour_occupancy)))
    for stats in (exact, fl):
        assert math.isclose(stats.log_partition, ref.log_partition, rel_tol=1e-15)


def test_hard_core_oracle_serves_the_live_sets_in_global_ids():
    g = cycle(5)
    oracle = hard_core_oracle(1.0)
    dist = oracle(g, (0, 1, 2, 3, 4))
    assert len(dist.sets) == 11
    assert abs(math.fsum(dist.probs) - 1.0) <= 1e-12
    assert all(p > 0 for p in dist.probs)
    # a live set that is not a prefix: C5 keeps only the edge 3-4 on it
    dist = oracle(g, (1, 3, 4))
    assert dist.sets == ((), (1,), (1, 3), (1, 4), (3,), (4,))
    assert dist.probs == (1 / 6,) * 6
    # the same oracle called on another graph lists that graph's sets
    assert oracle(path(3), (0, 1, 2)).sets == ((), (0,), (0, 2), (1,), (2,))


def test_glauber_stays_independent_and_deterministic():
    # The reference's bitmask state only gains a vertex with no occupied
    # neighbour, so it is independent after every step, and a k-step run
    # ends where a longer run stands after step k: equality for every k
    # checks each step's state.
    g = petersen()
    for k in range(1, 201):
        assert glauber_sample(g, 1.5, k, 9) == helpers.reference_glauber_sample(g, 1.5, k, 9)
    s1 = glauber_sample(g, 1.5, 4000, seed=9)
    s2 = glauber_sample(g, 1.5, 4000, seed=9)
    assert s1 == s2
    adj = [set(g.adjacency[v]) for v in range(g.n)]
    assert all(v not in adj[u] for u in s1 for v in s1 if u != v)
    with pytest.raises(InputError):
        glauber_sample(g, 1.5, 0, seed=1)


def _power_of_two_order_graphs():
    # n = 2^j needs j + 1 random bits per draw, so about half the draws are
    # rejected; j = 0 is the one-vertex graph
    return st.builds(
        random_triangle_free,
        st.integers(min_value=0, max_value=5).map(lambda j: 2 ** j),
        st.floats(min_value=0.0, max_value=0.6),
        st.integers(min_value=0, max_value=10_000),
    )


@settings(max_examples=150, deadline=None)
@given(
    g=st.one_of(helpers.triangle_free_graphs(max_n=40), _power_of_two_order_graphs()),
    lam=st.sampled_from((1e-300, 0.37, 1.0, 1e300)),
    steps=st.sampled_from((1, 7, 500)),
    seed=st.integers(min_value=0, max_value=2 ** 32),
)
@example(g=edgeless(1), lam=1.0, steps=500, seed=0)
@example(g=random_triangle_free(32, 0.2, 1), lam=0.37, steps=500, seed=3)
@example(g=petersen(), lam=1e300, steps=500, seed=5)
def test_glauber_matches_reference_sampler(g, lam, steps, seed):
    expected = helpers.reference_glauber_sample(g, lam, steps, seed)
    assert glauber_sample(g, lam, steps, seed) == expected


def test_glauber_edgeless_high_fugacity():
    # independent coordinates: empirical frequency near lambda/(1+lambda)
    g = edgeless(4)
    lam = 9.0
    occ = helpers.glauber_empirical_occupancy(g, lam, chains=800, steps=60, seed0=100)
    se = math.sqrt(0.9 * 0.1 / 800)
    for v in range(4):
        assert abs(occ[v] - 0.9) <= 3 * se


def test_glauber_k2_matches_exact():
    exact = enumerate_stats(K2, 1.0).occupancy[0]
    occ = helpers.glauber_empirical_occupancy(K2, 1.0, chains=1500, steps=120, seed0=0)
    se = math.sqrt(exact * (1 - exact) / 1500)
    for v in range(2):
        assert abs(occ[v] - exact) <= 3 * se


def test_glauber_c5_matches_exact():
    g = cycle(5)
    exact = enumerate_stats(g, 1.0).occupancy[0]
    occ = helpers.glauber_empirical_occupancy(g, 1.0, chains=1200, steps=400, seed0=50)
    se = math.sqrt(exact * (1 - exact) / 1200)
    for v in range(5):
        assert abs(occ[v] - exact) <= 3 * se


def test_hcm_lower_bound_values():
    lam = math.e - 1
    assert abs(hcm_lower_bound(lam, 1.0, 1.0) - (math.e - 1) / math.e) <= 1e-14
    expected = (1 + math.log(math.log(2))) / (2 * math.log(2))
    assert abs(hcm_lower_bound(1.0, 1.0, 1.0) - expected) <= 1e-14
    assert abs(expected - 0.45696433397203284) <= 1e-15


def test_hcm_lower_bound_log_linearity():
    lam, beta = 0.8, 1.3
    shift = beta * lam * math.log(2) / ((1 + lam) * math.log1p(lam))
    got = hcm_lower_bound(lam, 2.0, beta) - hcm_lower_bound(lam, 1.0, beta)
    assert abs(got - shift) <= 1e-12


def test_hcm_lower_bound_against_c5():
    stats = enumerate_stats(cycle(5), 1.0)
    lhs = stats.occupancy[0] + stats.neighbour_occupancy[0]
    assert abs(lhs - 9 / 11) <= 1e-12
    assert lhs >= hcm_lower_bound(1.0, 1.0, 1.0)


def test_hcm_lower_bound_validation():
    with pytest.raises(InputError):
        hcm_lower_bound(1.0, 0.0, 1.0)
    with pytest.raises(InputError):
        hcm_lower_bound(-1.0, 1.0, 1.0)
    # negative values are allowed outputs for extreme ratios
    assert hcm_lower_bound(1.0, 1e-9, 1.0) < 0


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.floats(min_value=0.05, max_value=0.6),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from([0.25, 0.5, 1.0, 2.0]),
    st.sampled_from([(1.0, 1.0), (10.0, 1.0), (1.0, 10.0), (math.e, 1.0)]),
)
def test_occupancy_bound_property(n, p, seed, lam, ab):
    g = random_triangle_free(n, p, seed)
    alpha, beta = ab
    stats = enumerate_stats(g, lam)
    bound = hcm_lower_bound(lam, alpha, beta)
    for v in range(g.n):
        lhs = alpha * stats.occupancy[v] + beta * stats.neighbour_occupancy[v]
        assert lhs >= bound - 1e-10


GADGET = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (2, 4), (3, 5), (4, 5)])


def _point(g: Graph, lam) -> int:
    """The point x at which `hardcore._Exact` evaluates every weight:
    lambda when it is an integer below 2^(n + 1), else 2^(n + 1)."""
    p, r = lam.as_integer_ratio()
    return p if r == 1 and p < 2 ** (g.n + 1) else 2 ** (g.n + 1)


def _at(packed: int, n: int, x: int) -> int:
    """A polynomial given packed in fields of n + 1 bits, evaluated at x."""
    bits = n + 1
    fields = []
    while packed:
        fields.append(packed & ((1 << bits) - 1))
        packed >>= bits
    return sum(c * x**k for k, c in enumerate(fields))


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


@settings(max_examples=60, deadline=None)
@given(helpers.triangle_free_graphs(), st.sampled_from([0.25, 0.7, 1.0, 2.0, 3.3]))
@example(edgeless(0), 0.7)
@example(edgeless(1), 0.7)
@example(Graph.from_edges(5, [(0, 1), (1, 2)]), 1.0)
def test_kernel_stats_match_enumeration(g, lam):
    ours = enumerate_stats(g, lam)
    ref = helpers.reference_enumerate_stats(g, lam)
    if lam == 1.0:  # integer counts on both sides, divided once
        assert ours == ref
    assert _close(math.exp(ours.log_partition), math.exp(ref.log_partition))
    assert all(map(_close, ours.occupancy, ref.occupancy))
    assert all(map(_close, ours.neighbour_occupancy, ref.neighbour_occupancy))


@settings(max_examples=40, deadline=None)
@given(
    helpers.triangle_free_graphs(),
    st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(7, 5), Fraction(3)]),
)
@example(edgeless(0), Fraction(2))
@example(edgeless(1), Fraction(2))
def test_kernel_rational_stats_match_enumeration(g, lam):
    ours = enumerate_stats(g, lam, cutoff=14)
    assert ours == helpers.reference_enumerate_stats_rational(g, lam)


@settings(max_examples=40, deadline=None)
@given(helpers.triangle_free_graphs(), st.sampled_from([0.5, 1.0, 2.0, 0.7, 3.3]))
@example(edgeless(0), 0.7)
@example(edgeless(1), 0.7)
@example(GADGET, 0.7)
def test_kernel_fact_check_matches_enumeration(g, lam):
    ours = conditional_fact_check(g, lam)
    if lam in (0.5, 1.0, 2.0):
        # every weight is a short dyadic number, so the enumerating sums are
        # exact too and both sides round the same quotients
        assert ours == helpers.reference_conditional_fact_check(g, lam)
    assert max(ours.fact1_residual, ours.fact2_residual) <= 1e-12


@pytest.mark.parametrize("lam", [1e-10, 0.3, 0.7, 1e3])
def test_fact_check_skips_counts_of_probability_zero(lam):
    # star(8) leaves 0 or 8 leaves uncovered, never 1..7; GADGET never leaves
    # exactly one neighbour of vertex 0 uncovered, though every term of that
    # inclusion-exclusion sum is a different subgraph
    for g in (star(8), GADGET):
        report = conditional_fact_check(g, lam)
        assert max(report.fact1_residual, report.fact2_residual) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    helpers.graphs(),
    helpers.several_component_graphs(max_n=20),
    st.integers(min_value=0, max_value=12).map(star),
))
@example(edgeless(0))
@example(path(40))
def test_record_lists_every_state_after_its_parts(g):
    # the walk's table holds the states reached from V, each after its
    # nonempty parts, item for item the table the recursion recorded
    table = hardcore._record(g)
    adj = g.adjacency_masks
    done, parts_seen = set(), set()
    for s, split in table.items():
        if split > 0:
            parts = {split, s ^ split}
        else:
            pick = 1 << ~split
            parts = {s ^ pick, s & ~adj[~split] & ~pick}
        parts.discard(0)
        assert parts <= done
        parts_seen |= parts
        done.add(s)
    assert done == (parts_seen | {(1 << g.n) - 1} if g.n else set())
    assert list(table.items()) == list(helpers.reference_record(g).items())


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        helpers.triangle_free_graphs(),
        helpers.several_component_graphs(max_n=20),
        st.integers(min_value=0, max_value=12).map(star),
    ),
)
@example(edgeless(3))
@example(star(10))
@example(GADGET)
@example(petersen())
@example(complete_bipartite(2, 2))
@example(complete_bipartite(3, 3))
@example(complete_bipartite(4, 4))
@example(complete_bipartite(5, 5))
@example(complete_bipartite(2, 5))
def test_marked_kernel_weights_match_inclusion_exclusion(g):
    # one counting model serves every vertex, as in conditional_fact_check,
    # and no vertex's pass records a state of its own; the reference
    # weights are packed, so they are read at x = 1
    exact = hardcore._Exact(g, 1)
    assert exact.x == 1
    states = len(exact.table)
    adj, memo = g.adjacency_masks, {0: 1}
    for v in range(g.n):
        counts = exact.uncovered_counts(v)
        _, ref_uncov = helpers.reference_fact_b_weights(g, v)
        assert counts[1:] == [_at(w, g.n, 1) for w in ref_uncov[1:]]
        # at j = 0 the reference also counts the sets that hold v, one per
        # independent set of X = V - N[v]
        zx = helpers._lowest_vertex_z(memo, adj, g.n + 1, (1 << g.n) - 1 & ~adj[v] & ~(1 << v))
        assert counts[0] + _at(zx, g.n, 1) == _at(ref_uncov[0], g.n, 1)
    assert len(exact.table) == states
    assert len(exact.z) == states + 1  # and Z is read, not added to


def _reference_fact_check(g: Graph, lam) -> hardcore.FactCheckReport:
    """Both residuals with exact Fractions: fact (a) from Z(X) and
    Z(V - N(v)), fact (b) from the inclusion-exclusion weights of
    `helpers.reference_fact_b_weights`, over the counts j of nonzero
    weight, each quotient rounded once as the package rounds it."""
    n = g.n
    adj = g.adjacency_masks
    x = 2 ** (n + 1)  # the point at which the references pack their weights
    at = Fraction(lam)
    rounded = (lambda q: q) if isinstance(lam, Fraction) else float
    full = (1 << n) - 1
    memo = {0: 1}
    res1 = res2 = 0.0
    for v in range(n):
        ref_total, ref_uncov = helpers.reference_fact_b_weights(g, v)
        assert ref_total[0] == ref_uncov[0]  # no neighbour uncovered: v is
        for j in range(1, len(ref_total)):
            # fact (b) on the reference weights, as integer polynomials
            assert ref_total[j] == ref_uncov[j] * (1 + x) ** j
        for j, (tw, uw) in enumerate(zip(ref_total, ref_uncov)):
            if tw:
                q = rounded(_at(uw, n, at) / _at(tw, n, at))
                res2 = max(res2, abs(q - (1.0 + lam) ** (-j)))
        zx = helpers._lowest_vertex_z(memo, adj, n + 1, full & ~adj[v] & ~(1 << v))
        zu = helpers._lowest_vertex_z(memo, adj, n + 1, full & ~adj[v])
        q = rounded(at * _at(zx, n, at) / _at(zu, n, at))
        res1 = max(res1, abs(q - lam / (1.0 + lam)))
    return hardcore.FactCheckReport(res1, res2)


FACT_CHECK_FUGACITIES = {
    "0.7": lambda n: 0.7,
    "1.3": lambda n: 1.3,  # fact (a)'s float formula misses its exact value here
    "3": lambda n: 3,
    "1e-10": lambda n: 1e-10,
    "1e300": lambda n: 1e300,
    "Fraction(7, 5)": lambda n: Fraction(7, 5),
    "2^(n+1) - 1": lambda n: float(2 ** (n + 1) - 1),
}


@pytest.mark.parametrize("which", sorted(FACT_CHECK_FUGACITIES))
@settings(max_examples=25, deadline=None)
@given(st.one_of(helpers.triangle_free_graphs(max_n=12),
                 st.integers(min_value=0, max_value=12).map(star)))
@example(star(8))
@example(GADGET)
@example(petersen())
def test_fact_check_is_the_exact_residual_of_every_count_that_occurs(which, g):
    # the check reads only which counts j occur off its counting passes;
    # every residual must still be the one that the weights at lambda give
    lam = FACT_CHECK_FUGACITIES[which](g.n)
    assert conditional_fact_check(g, lam) == _reference_fact_check(g, lam)


@pytest.mark.parametrize("lam", [0.7, 1.0, 3, Fraction(7, 5)], ids=["0.7", "1", "3", "7/5"])
@pytest.mark.parametrize("g, runs", [(star(8), 1), (GADGET, 0), (petersen(), 1),
                                     (complete_bipartite(3, 3), 6)],
                         ids=["star8", "gadget", "petersen", "k33"])
def test_fact_check_counts_on_one_table_at_lambda_one(monkeypatch, g, runs, lam):
    # conditional_fact_check records one table and builds only a counting
    # model; a model at lambda serves the check through a counting model
    # on its own table (itself at lambda 1), built when the first pass
    # runs, and no pass adds a state.  A vertex runs its pass only when it
    # could add a count: star(8)'s centre, no vertex of GADGET (its
    # degrees 1, 2 and 3 are every count it has), one vertex of Petersen,
    # and every vertex of K_{3,3}, where only j = 0 and j = 3 occur
    tables, models, passes = [], [], []
    real_record, real_exact = hardcore._record, hardcore._Exact
    real_counts = real_exact.uncovered_counts

    def record(g):
        tables.append(real_record(g))
        return tables[-1]

    def exact(*args):
        models.append(real_exact(*args))
        return models[-1]

    def counts(model, v):
        passes.append(model)
        return real_counts(model, v)

    monkeypatch.setattr(hardcore, "_record", record)
    monkeypatch.setattr(hardcore, "_Exact", exact)
    monkeypatch.setattr(real_exact, "uncovered_counts", counts)
    report = conditional_fact_check(g, lam)
    assert len(tables) == 1 and [m.x for m in models] == [1]
    assert len(passes) == runs and all(m is models[0] for m in passes)
    holder = exact(g, lam)
    states = len(holder.table)
    del models[:], passes[:]
    assert holder.fact_check(lam) == report
    assert len(models) == (1 if runs and holder.x != 1 else 0)
    counting = models[0] if models else holder
    assert counting.table is holder.table and (counting.x == 1 or not runs)
    assert len(passes) == runs and all(m is counting for m in passes)
    assert len(holder.table) == states


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        helpers.triangle_free_graphs(),
        helpers.several_component_graphs(max_n=20),
        st.integers(min_value=0, max_value=12).map(star),
        st.integers(min_value=1, max_value=5).map(lambda d: complete_bipartite(d, d)),
        st.sampled_from([GADGET, petersen()]),
    ),
    st.sampled_from([1.0, 0.7, 3, Fraction(7, 5)]),
)
@example(complete_bipartite(3, 3), 0.7)
@example(GADGET, Fraction(7, 5))
@example(petersen(), 0.7)
def test_fact_check_skips_only_passes_that_add_no_count(g, lam):
    # the skipped passes leave the union of occurring counts, and so the
    # report, what every vertex's pass gives; at lambda 1 and 3 every
    # residual of fact (b) is 0, so the union is compared as well
    occurring = helpers.reference_occurring_counts(g)
    q = Fraction(lam)
    res1 = abs(q / (1 + q) - lam / (1.0 + lam)) if g.n else 0.0
    res2 = max((abs((1 + q) ** -j - (1.0 + lam) ** -j) for j in occurring), default=0.0)
    holder = hardcore._Exact(g, lam)
    assert holder.occurring_counts() == occurring
    report = holder.fact_check(lam)
    assert report == hardcore.FactCheckReport(res1, res2)
    assert conditional_fact_check(g, lam) == report


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        helpers.triangle_free_graphs(),
        helpers.several_component_graphs(max_n=20),
        st.integers(min_value=0, max_value=12).map(star),
        helpers.graphs(),
    ),
    st.sampled_from([1.0, Fraction(7, 10), 3.0]),
)
@example(edgeless(0), 1.0)
@example(edgeless(1), Fraction(7, 10))
@example(edgeless(2), 3.0)
@example(edgeless(3), 1.0)
@example(petersen(), Fraction(7, 10))
@example(complete(4), 3.0)
@example(complete(5), Fraction(7, 10))
def test_reverse_pass_counts_match_one_query_per_vertex(g, lam):
    # the references are packed in fields of n + 1 bits; at x = lambda (here
    # 1 and 3) they are judged at that point, and the occupancies against
    # their exact quotient at lambda, rounded once for a float lambda
    total, counts = helpers.reference_occupancy_counts(g)
    exact = hardcore._Exact(g, lam)
    x = exact.x
    assert x == _point(g, lam)
    assert exact.z[(1 << g.n) - 1] == _at(total, g.n, x)
    assert exact.occupancy_counts() == [_at(c, g.n, x) for c in counts]
    stats = enumerate_stats(g, lam)
    at = Fraction(lam)
    quotients = tuple(_at(c, g.n, at) / _at(total, g.n, at) for c in counts)
    rounded = quotients if isinstance(lam, Fraction) else tuple(map(float, quotients))
    assert stats.occupancy == rounded


@settings(max_examples=40, deadline=None)
@given(st.one_of(
    helpers.triangle_free_graphs(),
    helpers.several_component_graphs(max_n=20),
    st.integers(min_value=0, max_value=12).map(star),
))
@example(edgeless(0))
@example(GADGET)
@example(petersen())
def test_splits_found_by_the_max_plus_search_serve_every_sum_product_form(g):
    # a split depends on the state alone, so the one table that semibip's
    # (max, +) search reads gives Z, the reverse pass and fact (b) their
    # exact values
    table = hardcore._record(g)
    adj = g.adjacency_masks
    done = set()
    for s, split in table.items():  # a post-order: every part comes first
        if split > 0:
            parts = (split, s ^ split)
        else:
            pick = 1 << ~split
            parts = (s ^ pick, s & ~adj[~split] & ~pick)
        assert all(part in done for part in parts if part)
        done.add(s)
    assert list(table)[-1:] == ([(1 << g.n) - 1] if g.n else [])
    found = constructions._max_degree_sum_set(g, table)
    assert found == helpers.reference_lowest_vertex_max_degree_sum_set(g)
    exact = hardcore._Exact(g, 0.5)
    assert list(exact.table.items()) == list(table.items())
    total, counts = helpers.reference_occupancy_counts(g)
    assert (exact.z[(1 << g.n) - 1], exact.occupancy_counts()) == (total, counts)
    counting = hardcore._Exact(g, 1, table)
    for v in range(g.n):
        _, ref_uncov = helpers.reference_fact_b_weights(g, v)
        assert counting.uncovered_counts(v)[1:] == [_at(w, g.n, 1) for w in ref_uncov[1:]]
    assert len(exact.table) == len(table)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        helpers.triangle_free_graphs(),
        helpers.several_component_graphs(max_n=20),
        st.integers(min_value=0, max_value=12).map(star),
    ),
    st.sampled_from(["1", "2", "3", "Fraction(2)", "2^(n+1) - 1", "2^(n+1)",
                     "Fraction(2^(n+1) - 1)"]),
)
@example(edgeless(0), "1")
@example(petersen(), "2^(n+1) - 1")
@example(GADGET, "Fraction(2^(n+1) - 1)")
def test_weights_at_an_integer_fugacity_give_the_packed_results(g, which):
    # x = lambda below 2^(n + 1), else the packed point: either way every
    # statistic and Fraction is the one the packed model gives
    top = 2 ** (g.n + 1)
    lam = {"1": 1.0, "2": 2.0, "3": 3, "Fraction(2)": Fraction(2),
           "2^(n+1) - 1": float(top - 1), "2^(n+1)": float(top),
           "Fraction(2^(n+1) - 1)": Fraction(top - 1)}[which]
    exact = hardcore._Exact(g, lam)
    assert exact.x == _point(g, lam) == min(lam, top)
    packed = helpers.packed_model(g, lam)
    assert exact.stats() == packed.stats()


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(helpers.triangle_free_graphs(max_n=11), helpers.several_component_graphs(max_n=11)),
    st.sampled_from([0.1, 0.7, 1.3e-5, 1e-300, 1e300, Fraction(7, 5), Fraction(1, 3)]),
)
@example(edgeless(0), 0.7)
@example(complete_bipartite(3, 3), 1e-300)
@example(petersen(), 1e300)
@example(GADGET, Fraction(1, 3))
def test_occupancies_are_the_exact_quotients_at_lambda(g, lam):
    # every fugacity here is read off the packed fields (1e300 lies above
    # 2^(n + 1)), with Z's field count for every weight; each occupancy is
    # the exact quotient, rounded once for a float lambda
    ours = enumerate_stats(g, lam).occupancy
    ref = helpers.reference_enumerate_stats_rational(g, lam).occupancy
    assert ours == (ref if isinstance(lam, Fraction) else tuple(map(float, ref)))


@pytest.mark.parametrize("lam", [1e-300, 1e-10, 1e-3])
@pytest.mark.parametrize("g", [edgeless(3), cycle(5), petersen()], ids=["E3", "C5", "petersen"])
def test_log_partition_keeps_the_digits_of_z_near_one(g, lam):
    exact = sum(Fraction(lam) ** m.bit_count() for m in independent_set_masks(g))
    expected = helpers.reference_log(exact)
    for x in (lam, Fraction(lam)):
        assert math.isclose(enumerate_stats(g, x).log_partition, expected, rel_tol=1e-15)


@pytest.mark.parametrize("g, counts", [(path(1100), {1, 2}), (star(1001), {1, 1001})],
                         ids=["path", "star"])
def test_fact_check_past_the_recursion_limit_is_size_error(g, counts):
    # named for the interpreter's recursion limit, which the path (one
    # level per vertex) and the star (one per leaf component) passed when
    # the kernel recursed; the explicit stack runs both to their exact
    # report.  The counts j are the path's degrees; on the star, the
    # centre's only set J = {} leaves all its leaves uncovered, and a leaf
    # sees the centre uncovered only when J = {}
    q = Fraction(0.7)
    res2 = max(abs((1 + q) ** -j - 1.7 ** -j) for j in counts)
    expected = FactCheckReport(abs(q / (1 + q) - 0.7 / 1.7), res2)
    assert conditional_fact_check(g, 0.7, cutoff=2000) == expected


@pytest.mark.parametrize("g, lam, occupancy", [
    (edgeless(1200), 1.0, lambda n, lam: [lam / (1 + lam)] * n),
    (edgeless(1200), Fraction(3), lambda n, lam: [lam / (1 + lam)] * n),
    (star(1200), 1.0, helpers.star_occupancy),
    (star(1200), Fraction(3), helpers.star_occupancy),
    (path(1100), Fraction(3), helpers.path_occupancy),
    (cycle(1001), 1.0, lambda n, lam: [helpers.cycle_occupancy(n, lam)] * n),
], ids=["edgeless-1", "edgeless-3", "star-1", "star-3", "path-3", "cycle-1"])
def test_long_graphs_match_closed_forms(g, lam, occupancy):
    # past a thousand vertices, where the recursive kernel stopped: each
    # occupancy is the exact quotient, a Fraction at a Fraction lambda
    # and correctly rounded at a float one
    exact = tuple(occupancy(g.n, Fraction(lam)))
    rounded = exact if isinstance(lam, Fraction) else tuple(map(float, exact))
    assert enumerate_stats(g, lam, cutoff=g.n).occupancy == rounded
