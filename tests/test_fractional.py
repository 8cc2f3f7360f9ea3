import json
import math
import tempfile
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hcchroma import (
    HypothesisError,
    InputError,
    StateError,
    complete_bipartite,
    cycle,
    edgeless,
    petersen,
    random_triangle_free,
    star,
)
from hcchroma.fractional import (
    FractionalColouring,
    LocalWeights,
    SetDistribution,
    _oracle_scores,
    alpha_from_beta,
    choose_local_weights,
    extract_independent_set,
    greedy_fractional_colouring,
    hard_core_oracle,
    interval_measure,
    validate_colouring,
    vertex_interval_bound,
)
from hcchroma.hardcore import enumerate_stats, hcm_lower_bound

import helpers

K1 = edgeless(1)
K2 = complete_bipartite(1, 1)
C5_MAX_SETS = [(0, 2), (1, 3), (2, 4), (0, 3), (1, 4)]


def weights_alpha0(g, a0):
    return LocalWeights.from_alpha(g, [(a0, 0.0)] * g.n)


def _same_colouring(a, b):
    return a.parts == b.parts and a.total == b.total and a.taus == b.taus


def test_hand_trace_k1():
    col = greedy_fractional_colouring(K1, LocalWeights.from_alpha(K1, [(2.0, 0.0)]), hard_core_oracle(1.0))
    assert col.taus == (2.0,)
    assert abs(col.total - 2.0) <= 1e-9
    assert abs(interval_measure(col.parts.get((), ())) - 1.0) <= 1e-9
    # the vertex is coloured by one unit-length block inside [0, 2)
    ivs = col.parts[(0,)]
    assert abs(interval_measure(ivs) - 1.0) <= 1e-9
    assert len(ivs) == 1 and 0.0 <= ivs[0][0] and ivs[0][1] <= 2.0


def test_hand_trace_k2():
    col = greedy_fractional_colouring(K2, weights_alpha0(K2, 3.0), hard_core_oracle(1.0))
    assert col.taus == (3.0,)
    assert abs(col.total - 3.0) <= 1e-9
    for s in ((), (0,), (1,)):
        assert abs(interval_measure(col.parts.get(s, ())) - 1.0) <= 1e-9
    # adjacent vertices never share measure; each lies in one part only
    assert set(col.parts) == {(), (0,), (1,)}
    i0 = col.parts[(0,)]
    i1 = col.parts[(1,)]
    for a1, b1 in i0:
        for a2, b2 in i1:
            assert min(b1, b2) <= max(a1, a2)


def test_hand_trace_c5_uniform():
    g = cycle(5)
    col = greedy_fractional_colouring(
        g, weights_alpha0(g, 2.5), helpers.uniform_set_oracle(C5_MAX_SETS)
    )
    assert col.taus == (2.5,)
    assert abs(col.total - 2.5) <= 1e-9
    for s in C5_MAX_SETS:
        assert abs(interval_measure(col.parts.get(s, ())) - 0.5) <= 1e-9
    for v in range(5):
        mv = math.fsum(interval_measure(ivs) for s, ivs in col.parts.items() if v in s)
        assert abs(mv - 1.0) <= 1e-9


def test_validate_examples():
    g = cycle(5)
    col = greedy_fractional_colouring(
        g, weights_alpha0(g, 2.5), helpers.uniform_set_oracle(C5_MAX_SETS)
    )
    assert validate_colouring(g, col, 2.5 + 1e-9).ok
    bad = validate_colouring(g, col, 0.0)
    assert not bad.ok and len(bad.failures) >= 5

    col2 = greedy_fractional_colouring(K2, weights_alpha0(K2, 3.0), hard_core_oracle(1.0))
    assert validate_colouring(K2, col2, 3.0).ok


def test_extract_examples():
    g = cycle(5)
    col = greedy_fractional_colouring(
        g, weights_alpha0(g, 2.5), helpers.uniform_set_oracle(C5_MAX_SETS)
    )
    picked = extract_independent_set(g, col)
    assert len(picked) == 2
    assert picked == (0, 2)  # lexicographically smallest maximum class

    col2 = greedy_fractional_colouring(K2, weights_alpha0(K2, 3.0), hard_core_oracle(1.0))
    assert len(extract_independent_set(K2, col2)) == 1

    g4 = edgeless(4)
    manual = FractionalColouring({(0, 1, 2, 3): ((0.0, 1.0),)}, 1.0)
    assert extract_independent_set(g4, manual) == (0, 1, 2, 3)


def test_extract_requires_completion():
    g = edgeless(2)
    partial = FractionalColouring({(0, 1): ((0.0, 0.5),)}, 0.5)
    with pytest.raises(StateError):
        extract_independent_set(g, partial)


def test_hypothesis_violation_identifies_vertex():
    # uniform over the empty set gives zero occupancy everywhere
    g = K2
    with pytest.raises(HypothesisError) as err:
        greedy_fractional_colouring(g, weights_alpha0(g, 3.0), helpers.uniform_set_oracle([()]))
    assert "vertex" in str(err.value)


def test_choose_local_weights_validation():
    with pytest.raises(InputError):
        choose_local_weights(cycle(5), 0.0)
    with pytest.raises(InputError):
        choose_local_weights(cycle(5), 4.5)
    # lam = eps/2 underflows to 0 at 5e-324; above that (1 + lam)/lam overflows
    for eps in (5e-324, 1e-323, 1e-310, 1.1e-308):
        with pytest.raises(InputError, match="too small"):
            choose_local_weights(cycle(5), eps)


def test_choose_local_weights_identities():
    for eps in (1.0, 2.0, 4.0):
        for g in (cycle(5), star(3), petersen(), random_triangle_free(14, 0.3, 4)):
            lam, weights = choose_local_weights(g, eps)
            assert lam == eps / 2
            for v in range(g.n):
                a, b = weights.alpha[v]
                d = g.degree(v)
                if d == 0:
                    continue
                assert abs(hcm_lower_bound(lam, a, b) - 1.0) <= 1e-9
                assert abs(weights.gamma[v] - vertex_interval_bound(lam, d)) <= 1e-9


def test_weight_perturbation_never_improves():
    lam = 1.0
    for d in (1, 2, 3, 5, 10, 25, 100):
        beta = choose_local_weights(star(d), 2.0)[1].alpha[0][1]
        best = alpha_from_beta(lam, beta) + beta * d
        for factor in (0.99, 1.01):
            b2 = beta * factor
            assert alpha_from_beta(lam, b2) + b2 * d >= best - 1e-12


def test_isolated_vertices_get_feasible_weights():
    g = edgeless(3)
    lam, weights = choose_local_weights(g, 2.0)
    col = greedy_fractional_colouring(g, weights, hard_core_oracle(lam))
    assert validate_colouring(g, col, [vertex_interval_bound(lam, 0)] * 3).ok


def test_empty_graph_colours_trivially():
    col = greedy_fractional_colouring(
        edgeless(0), LocalWeights.from_alpha(edgeless(0), []), hard_core_oracle(1.0)
    )
    assert col.total == 0.0 and col.parts == {}


def test_set_distribution_validation():
    with pytest.raises(InputError):
        SetDistribution(((0,),), (0.5,))  # does not sum to 1
    with pytest.raises(InputError):
        SetDistribution(((1,), (0,)), (0.5, 0.5))  # not canonical order
    with pytest.raises(InputError):
        SetDistribution(((),), (math.nan,))


@pytest.mark.parametrize("lam", [1e200, 1e300])
def test_fugacity_whose_weights_overflow_is_rejected(lam):
    # lam^2 overflows to inf, so the two-element sets of C5 weigh inf/inf = NaN
    g = cycle(5)
    with pytest.raises(InputError):
        greedy_fractional_colouring(g, weights_alpha0(g, 5.0), hard_core_oracle(lam))


@st.composite
def live_sequences(draw, max_n=8):
    """A graph and a sequence of sorted live tuples: each one either a
    subset of the one before (narrowing) or any subset (growing back)."""
    g = draw(helpers.triangle_free_graphs(max_n=max_n))
    lives = []
    live = set(range(g.n))
    for narrow in draw(st.lists(st.booleans(), min_size=1, max_size=6)):
        drawn = draw(st.sets(st.integers(0, max(g.n - 1, 0)))) if g.n else set()
        live = live & drawn if narrow else drawn
        lives.append(tuple(sorted(live)))
    return g, lives


@settings(max_examples=60, deadline=None)
@given(live_sequences(), live_sequences(), st.sampled_from([0.5, 1.0, 2.0]))
@example((cycle(5), [(0, 1, 2, 3, 4), (0, 1, 3), (0, 1, 3), (0, 1, 2, 3, 4), (0, 1)]),
         (edgeless(5), [(0, 1), (1,)]), 1.0)
def test_narrowing_oracle_matches_reference_on_any_live_sequence(first, second, lam):
    oracle = hard_core_oracle(lam)
    ref = helpers.reference_hard_core_oracle(lam)
    for g, lives in (first, second):
        for live in lives:
            assert oracle(g, live) == ref(g, live)


def test_table_oracle_restricts_by_intersection():
    from hcchroma import path

    g = path(3)
    oracle = helpers.table_oracle({(0, 2): 1.0, (1,): 1.0})
    dist = oracle(g, (0, 1))
    assert dist.sets == ((0,), (1,))
    assert dist.probs == (0.5, 0.5)
    # restricted sets keep their global ids on a live set that is not a prefix
    dist = oracle(g, (1, 2))
    assert dist.sets == ((1,), (2,))
    assert dist.probs == (0.5, 0.5)
    dist = oracle(g, (2,))
    assert dist.sets == ((), (2,))
    assert dist.probs == (0.5, 0.5)


def test_table_oracle_greedy_past_round_one():
    # Hand trace on the path 0-1-2 with weights 3/8, 1/8, 2/8, 2/8 on
    # (0,), (0, 2), (1,), (2,) and alpha = (8, 0), so gamma = 8 never binds.
    # Round 1, live (0, 1, 2): occupancies 1/2, 1/4, 3/8, tau = 2; vertex 0
    # saturates alone.  Round 2, live (1, 2): the table restricts to
    # () 3/8, (1,) 1/4, (2,) 3/8 (from (0, 2) and (2,)); measures so far
    # 1/2 and 3/4, tau = min(2, 2/3) = 2/3; vertex 2 saturates.  Round 3,
    # live (1,): () 3/4, (1,) 1/4; vertex 1 still needs 1/3, tau = 4/3.
    from hcchroma import path

    g = path(3)
    oracle = helpers.table_oracle({(0,): 3.0, (0, 2): 1.0, (1,): 2.0, (2,): 2.0})
    col = greedy_fractional_colouring(g, weights_alpha0(g, 8.0), oracle)
    expected = {
        (): [(2, 9 / 4), (8 / 3, 11 / 3)],
        (0,): [(0, 3 / 4)],
        (0, 2): [(3 / 4, 1)],
        (1,): [(1, 3 / 2), (9 / 4, 29 / 12), (11 / 3, 4)],
        (2,): [(3 / 2, 2), (29 / 12, 8 / 3)],
    }
    assert sorted(col.parts) == sorted(expected)
    for s, ivs in expected.items():
        assert len(col.parts[s]) == len(ivs)
        for got, want in zip(col.parts[s], ivs):
            assert got == pytest.approx(want, rel=0, abs=1e-12)
    assert col.taus == pytest.approx((2, 2 / 3, 4 / 3), rel=0, abs=1e-12)
    assert col.total == pytest.approx(4, rel=0, abs=1e-12)


@settings(max_examples=80, deadline=None)
@given(g=helpers.triangle_free_graphs(max_n=10), data=st.data())
def test_oracle_scores_equal_scores_on_the_built_induced_subgraph(g, data):
    assume(g.n > 0)
    live = tuple(sorted(data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))))
    occ = data.draw(st.lists(st.floats(0.0, 1.0), min_size=g.n, max_size=g.n))
    alpha = data.draw(st.lists(
        st.tuples(st.floats(0.0, 10.0), st.floats(0.0, 10.0)),
        min_size=g.n, max_size=g.n))
    weights = LocalWeights.from_alpha(g, alpha)
    assert _oracle_scores(g, live, occ, weights) == helpers.reference_oracle_scores(
        g, live, occ, weights)


def test_local_weights_gamma_recomputable():
    g = petersen()
    _, weights = choose_local_weights(g, 2.0)
    rebuilt = LocalWeights.from_alpha(g, weights.alpha)
    assert all(abs(a - b) <= 1e-12 for a, b in zip(rebuilt.gamma, weights.gamma))


@pytest.mark.parametrize("row", [(2.0,), (2.0, 0.0, 1.0)], ids=["single", "triple"])
def test_local_weights_need_one_pair_per_vertex(row):
    g = cycle(5)
    with pytest.raises(InputError):
        LocalWeights.from_alpha(g, [row] * g.n)


def test_greedy_rejects_mismatched_weights():
    g = cycle(5)
    short = LocalWeights.from_alpha(edgeless(2), [(2.0, 0.0)] * 2)
    with pytest.raises(InputError):
        greedy_fractional_colouring(g, short, hard_core_oracle(1.0))


def test_measure_accounting_and_cap():
    for seed in range(4):
        g = random_triangle_free(10, 0.35, seed)
        lam, weights = choose_local_weights(g, 2.0)
        col = greedy_fractional_colouring(g, weights, hard_core_oracle(lam))
        assert len(col.taus) <= g.n
        assert abs(col.total - math.fsum(col.taus)) <= 1e-9
        for v in range(g.n):
            mv = math.fsum(b - a for s, ivs in col.parts.items() if v in s for a, b in ivs)
            assert mv <= 1.0 + 1e-7
            assert mv >= 1.0 - 1e-9
        # interval blocks tile [0, total) without overlap
        flat = sorted(iv for ivs in col.parts.values() for iv in ivs)
        assert abs(flat[0][0]) <= 1e-12
        for (a1, b1), (a2, b2) in zip(flat, flat[1:]):
            assert abs(a2 - b1) <= 1e-9
        assert abs(flat[-1][1] - col.total) <= 1e-9


def pipeline_colouring(g, eps):
    lam, weights = choose_local_weights(g, eps)
    return greedy_fractional_colouring(g, weights, hard_core_oracle(lam))


def reference_text(col):
    return json.dumps(col.to_json_dict(), indent=2, sort_keys=True) + "\n"


def written_text(col):
    """What `write_json` puts in a real file, read back."""
    with tempfile.TemporaryFile("w+", encoding="utf-8") as fh:
        col.write_json(fh)
        fh.seek(0)
        return fh.read()


def assert_text_matches_encoder(col):
    expected = reference_text(col)
    assert helpers.json_text(col) == expected
    assert written_text(col) == expected


@pytest.mark.parametrize("g", [edgeless(0), K1, K2, cycle(5)], ids=["empty", "K1", "K2", "C5"])
def test_json_text_matches_encoder(g):
    assert_text_matches_encoder(pipeline_colouring(g, 2.0))


def test_json_text_edge_cases_match_encoder():
    cols = [
        FractionalColouring({(): (), (0, 2): ((0, 1), (1.5, 2.0))}, 2),
        # a zero end, then a start at the zero of the other sign: spelled apart
        FractionalColouring({(): ((-1.0, 0.0),), (0,): ((-0.0, 0.5),)}, 0.5),
        FractionalColouring({(): ((-1.0, -0.0),), (0,): ((0.0, 0.5),)}, 0.5),
        # an int end and a float start of equal value: spelled apart
        FractionalColouring({(0,): ((0, 1),), (1,): ((1.0, 2.0),), (2,): ((2, 3),)}, 3),
        # ends taken up by starts in parts that are not adjacent, in two
        # rounds whose blocks go to the sets in different orders
        FractionalColouring({
            (): ((0.0, 0.25), (1.75, 2.0)),
            (0,): ((0.5, 0.75), (2.0, 2.5)),
            (0, 2): ((1.25, 1.75),),
            (1,): ((0.25, 0.5),),
            (1, 3): ((2.5, 3.0),),
            (2,): ((0.75, 1.25),),
        }, 3.0),
        # degenerate blocks: an end equal to its own start, held twice
        FractionalColouring({(): ((1.0, 1.0), (1.0, 2.0)), (0,): ((0.5, 1.0),)}, 2.0),
    ]
    for col in cols:
        assert_text_matches_encoder(col)


@pytest.mark.parametrize("col", [
    FractionalColouring({(0,): ((0.0, math.inf),)}, math.inf),
    FractionalColouring({(0,): ((0.0, math.nan),)}, 1e-300),
    FractionalColouring({(0,): ((0.0, 1.0),)}, math.nan),
    FractionalColouring({(): ((0.0, 0.5),), (0,): ((-math.inf, 1.0),)}, 1.0),
], ids=["inf-total", "nan-end", "nan-total", "inf-start"])
def test_write_json_refuses_non_finite_numbers(col):
    with tempfile.TemporaryFile("w+", encoding="utf-8") as fh:
        with pytest.raises(InputError):
            col.write_json(fh)
        fh.seek(0)
        assert fh.read() == ""


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=9),
    st.floats(min_value=0.1, max_value=0.7),
    st.integers(min_value=0, max_value=1000),
    st.sampled_from([1.0, 2.0, 4.0]),
)
def test_json_text_matches_encoder_random(n, p, seed, eps):
    assert_text_matches_encoder(pipeline_colouring(random_triangle_free(n, p, seed), eps))


def test_write_json_holds_no_copy_of_the_text():
    col = pipeline_colouring(random_triangle_free(18, 0.32, 1), 1.0)
    assert sum(len(ivs) for ivs in col.parts.values()) >= 1000
    text_length = len(reference_text(col))
    with tempfile.TemporaryFile("w", encoding="utf-8") as fh:
        tracemalloc.start()
        try:
            col.write_json(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # building the whole text and then writing it peaks at twice its length
    assert peak < 0.1 * text_length


def test_validate_colouring_holds_no_copy_of_the_intervals():
    g = random_triangle_free(18, 0.32, 1)
    lam, _ = choose_local_weights(g, 1.0)
    col = pipeline_colouring(g, 1.0)
    bounds = [vertex_interval_bound(lam, g.degree(v)) for v in range(g.n)]
    intervals = sum(len(ivs) for ivs in col.parts.values())
    assert intervals >= 1000
    tracemalloc.start()
    try:
        assert validate_colouring(g, col, bounds).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # references to the intervals take about 30 bytes per interval here; a
    # copied length per interval (a float and its list slot) about 90
    assert peak < 50 * intervals


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=2, max_value=8),
    st.floats(min_value=0.1, max_value=0.6),
    st.integers(min_value=0, max_value=1000),
    st.sampled_from([1.0, 2.0, 4.0]),
)
def test_pipeline_property_small(n, p, seed, eps):
    g = random_triangle_free(n, p, seed)
    lam, weights = choose_local_weights(g, eps)
    col = greedy_fractional_colouring(g, weights, hard_core_oracle(lam))
    assert len(col.taus) <= g.n
    bounds = [vertex_interval_bound(lam, g.degree(v)) for v in range(g.n)]
    assert validate_colouring(g, col, bounds).ok


@pytest.mark.parametrize("eps", [0.1, 0.05, 0.01, 1e-4])
@pytest.mark.parametrize("g", [random_triangle_free(14, 0.25, 1),
                               random_triangle_free(14, 0.25, 27), edgeless(8)],
                         ids=["seed1", "seed27", "E8"])
def test_small_epsilon_colourings_validate(g, eps):
    # at a small eps the running sum reaches about 2 / eps, where a block's
    # length can be too small to move it; the greedy keeps no such empty
    # block, since the validator rejects one
    lam, weights = choose_local_weights(g, eps)
    col = greedy_fractional_colouring(g, weights, hard_core_oracle(lam))
    bounds = [vertex_interval_bound(lam, g.degree(v)) for v in range(g.n)]
    report = validate_colouring(g, col, bounds)
    assert report.ok, report.failures[:3]


@settings(max_examples=40, deadline=None)
@given(helpers.triangle_free_graphs(), st.sampled_from([1.0, 2.0, 4.0]))
@example(edgeless(0), 2.0)
@example(edgeless(1), 2.0)
def test_hard_core_oracle_matches_per_round_enumeration(g, eps):
    # eps = 2 lam covers lam in {0.5, 1, 2}; equality is exact, not approximate
    lam, weights = choose_local_weights(g, eps)
    ours = greedy_fractional_colouring(g, weights, hard_core_oracle(lam))
    ref = greedy_fractional_colouring(g, weights, helpers.reference_hard_core_oracle(lam))
    assert _same_colouring(ours, ref)
