import hashlib
import itertools
import math
import random
import re
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hcchroma import (
    Graph,
    HypothesisError,
    InputError,
    SizeError,
    complete,
    cycle,
    edgeless,
    petersen,
    random_triangle_free,
    star,
)
from hcchroma import hardcore
from hcchroma.constructions import (
    _list_colourable,
    _max_degree_sum_set,
    auto_fugacity,
    check_recursive_properties,
    expected_crossing_edges,
    necessary_construction,
    semi_bipartite_extract,
    semi_bipartite_lower_bound,
    structural_not_colourable,
    verify_construction,
)
from hcchroma.graph import MAX_VERTICES
from hcchroma.hardcore import enumerate_stats

import helpers
from helpers import with_extra_colour


def brute_list_colourable(g, lists):
    """Oracle: try every assignment from the lists."""
    domains = [sorted(l) for l in lists]
    for pick in itertools.product(*domains):
        if all(pick[u] != pick[v] for u, v in g.edges()):
            return True
    return not domains or g.n == 0 and True


def test_level0_star_properties():
    inst = necessary_construction(3, 0)
    assert inst.graph.n == 4
    assert inst.graph == star(3)
    assert check_recursive_properties(inst).ok
    assert len(inst.lists[0]) == 3
    assert 3 >= 3 / math.log(3)
    for leaf in (1, 2, 3):
        assert len(inst.lists[leaf]) == 1


def test_level0_not_colourable_and_boundary():
    inst = necessary_construction(3, 0)
    assert verify_construction(inst)[0]
    assert structural_not_colourable(inst) is True
    assert not brute_list_colourable(inst.graph, inst.lists)
    extra = with_extra_colour(inst, inst.special_vertex, (9, 9))
    assert not verify_construction(extra)[0]
    assert brute_list_colourable(extra.graph, extra.lists)


def test_level1_arithmetic():
    inst = necessary_construction(3, 1)
    # ceil(e^3 / 3) = 7 copies of K_{1,3} plus the universal vertex
    assert inst.graph.n == 7 * 4 + 1 == 29
    v1 = inst.special_vertex
    assert inst.graph.degree(v1) == 21
    assert len(inst.lists[v1]) == 7
    assert 7 >= 21 / math.log(21)
    assert check_recursive_properties(inst).ok
    assert len(inst.copies) == 7


def test_level1_not_colourable():
    inst = necessary_construction(3, 1)
    assert verify_construction(inst)[0]
    assert structural_not_colourable(inst) is True


def test_level1_boundary_extras():
    inst = necessary_construction(3, 1)
    v1 = inst.special_vertex
    seen = set().union(*inst.lists)
    candidates = sorted(seen - inst.lists[v1]) + [(99, 99)]
    for extra in candidates:
        assert not verify_construction(with_extra_colour(inst, v1, extra))[0], extra


def _corrupt(inst, property_name):
    """``inst`` (delta 3, level 1) broken in one recursive property."""
    special = inst.special_vertex
    if property_name == "partition":
        return replace(inst, b_side=inst.b_side[:-1])
    if property_name == "bipartite":  # join the centres of copies 0 and 1
        edges = [*inst.graph.edges(), (0, 4)]
        return replace(inst, graph=Graph.from_edges(inst.graph.n, edges))
    if property_name == "a-degree":
        return replace(inst, delta=4)
    if property_name == "special":
        return replace(inst, special_vertex=0)
    if property_name == "b-degree":
        return replace(inst, level=2)
    lists = list(inst.lists)
    if property_name == "a-list":
        lists[special] = frozenset(sorted(lists[special])[:2])
    else:
        lists[1] = frozenset(sorted(lists[1])[:1])
    return replace(inst, lists=tuple(lists))


@pytest.mark.parametrize("property_name, failure", [
    ("partition", r"A and B do not partition the vertices"),
    ("bipartite", r"edge 0-4 does not cross the bipartition"),
    ("a-degree", r"A-vertex \d+ has degree 3 < 4"),
    ("special", r"special vertex does not attain the maximum A-degree"),
    ("b-degree", r"B-vertex \d+ has degree 2, expected 3"),
    ("a-list", r"A-vertex 28: list size 2 < deg/log deg = 6\.89"),
    ("b-list", r"B-vertex 1: list size 1 < degree 2"),
])
def test_check_recursive_properties_reports_each_failure(property_name, failure):
    inst = necessary_construction(3, 1)
    assert check_recursive_properties(inst).ok
    report = check_recursive_properties(_corrupt(inst, property_name))
    assert not report.ok and report.failures
    for text in report.failures:
        assert re.match(failure, text), text


def test_colourability_search_past_the_recursion_limit_is_a_size_error():
    inst = necessary_construction(7, 1)
    extra = with_extra_colour(inst, inst.special_vertex, (0, 99))
    with pytest.raises(SizeError, match="recursion limit"):
        verify_construction(extra)


def test_level2_exceeds_cap():
    with pytest.raises(SizeError):
        necessary_construction(3, 2)


def test_size_cap_applies_at_level0():
    with pytest.raises(SizeError):
        necessary_construction(5, 0, size_cap=5)
    assert necessary_construction(5, 0, size_cap=6).graph.n == 6


def test_larger_delta_levels_materialise():
    # ceil(e^4 / 4) = 14 copies of K_{1,4} plus the universal vertex
    inst = necessary_construction(4, 1)
    assert inst.graph.n == 14 * 5 + 1
    assert check_recursive_properties(inst).ok
    assert verify_construction(inst)[0]
    # ceil(e^5 / 5) = 30 copies of K_{1,5}
    inst5 = necessary_construction(5, 1)
    assert inst5.graph.n == 30 * 6 + 1
    assert check_recursive_properties(inst5).ok
    assert structural_not_colourable(inst5) is True


def test_parameter_validation():
    with pytest.raises(InputError):
        necessary_construction(2, 0)
    with pytest.raises(InputError):
        necessary_construction(3, 3)
    with pytest.raises(InputError):
        necessary_construction(3, -1)
    with pytest.raises(InputError):
        necessary_construction(3, 0, size_cap=-1)
    with pytest.raises(InputError, match=f"size_cap must be at most {MAX_VERTICES}"):
        necessary_construction(3, 0, size_cap=MAX_VERTICES + 1)
    assert necessary_construction(3, 1, size_cap=MAX_VERTICES).graph.n == 29
    with pytest.raises(InputError):
        verify_construction(necessary_construction(3, 0), budget=-1)


def test_budget_error():
    inst = necessary_construction(3, 1)
    with pytest.raises(SizeError):
        verify_construction(inst, budget=3)


def test_auto_fugacity():
    g = cycle(5)
    assert abs(auto_fugacity(g) - 5 / (5 * math.log(2))) <= 1e-12
    with pytest.raises(InputError):
        auto_fugacity(edgeless(4))
    with pytest.raises(InputError):
        auto_fugacity(star(1))  # both degrees 1, log sum vanishes


def test_semi_bipartite_examples():
    a, b, avg = semi_bipartite_extract(edgeless(4), lam=1.0)
    assert avg == 0.0

    a, b, avg = semi_bipartite_extract(cycle(5), lam=1.0)
    assert a == (0, 2)
    assert b == (1, 3, 4)
    assert avg == 2 * 4 / 5
    adj = cycle(5).adjacency
    assert all(v not in adj[u] for u in a for v in a if u != v)

    with pytest.raises(HypothesisError):
        semi_bipartite_extract(complete(3), lam=1.0)


def test_semi_bipartite_sampled_mode():
    g = petersen()
    a, b, avg = semi_bipartite_extract(g, lam=1.0, trials=16, seed=3, cutoff=5)
    adj = g.adjacency
    assert all(v not in adj[u] for u in a for v in a if u != v)
    assert avg == 2 * sum(g.degree(v) for v in a) / g.n
    again = semi_bipartite_extract(g, lam=1.0, trials=16, seed=3, cutoff=5)
    assert again[0] == a


@pytest.mark.parametrize("lam", [math.inf, math.nan, 0.0])
def test_semi_bipartite_rejects_bad_fugacity(lam):
    for g in (cycle(5), edgeless(0)):
        with pytest.raises(InputError):
            semi_bipartite_extract(g, lam=lam)


@pytest.mark.parametrize("trials", [0, -2])
@pytest.mark.parametrize("cutoff", [3, 30], ids=["sampled", "exact"])
def test_semi_bipartite_rejects_bad_trials_in_either_mode(trials, cutoff):
    for g in (cycle(5), edgeless(0)):
        with pytest.raises(InputError, match="trials must be at least 1"):
            semi_bipartite_extract(g, lam=1.0, trials=trials, cutoff=cutoff)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=14), st.integers(min_value=0, max_value=3),
       st.floats(min_value=0.0, max_value=0.6), st.integers(min_value=0, max_value=10_000))
@example(0, 0, 0.0, 0)
@example(1, 1, 0.0, 0)
@example(6, 2, 0.5, 3)
def test_semi_bipartite_exact_mode_matches_enumeration(n, isolated, p, seed):
    isolated = min(isolated, n)
    g = Graph.from_edges(n, list(random_triangle_free(n - isolated, p, seed).edges()))
    a, b, avg = semi_bipartite_extract(g, lam=1.0)
    if g.n:
        members, score = helpers.reference_max_degree_sum_set(g)
        assert a == members
        assert avg == 2.0 * score / g.n
    assert b == tuple(v for v in range(g.n) if v not in a)


# Graphs whose packed (max, +) values exercise the decoding, with the answer
# each must give: isolated vertices below and above the members (the trim
# keeps 0 and drops 4 and 5), and 14 copies of C5 in blocks, whose packed
# value spans several machine words.
ISOLATED_AROUND = Graph.from_edges(6, [(1, 2), (2, 3)])
C5_BLOCKS = Graph.from_edges(70, [(5 * k + i, 5 * k + (i + 1) % 5)
                                  for k in range(14) for i in range(5)])
PACKED_ANSWERS = {
    ISOLATED_AROUND: ((0, 1, 3), 2),
    C5_BLOCKS: (tuple(5 * k + i for k in range(14) for i in (0, 2)), 56),
}


@settings(max_examples=100, deadline=None)
@given(helpers.several_component_graphs(max_n=40))
@example(edgeless(5))
@example(Graph.from_edges(8, [(1, 5), (5, 2), (3, 7), (6, 7)]))
@example(ISOLATED_AROUND)
@example(C5_BLOCKS)
def test_max_degree_sum_set_matches_the_lowest_vertex_search(g):
    found = _max_degree_sum_set(g, hardcore._record(g))
    assert found == helpers.reference_lowest_vertex_max_degree_sum_set(g)
    assert found == PACKED_ANSWERS.get(g, found)


def test_semi_bipartite_exact_mode_ignores_fugacity():
    g = petersen()
    results = {semi_bipartite_extract(g, lam=lam) for lam in (1e-6, 1.0, 1e6)}
    assert len(results) == 1


def test_expected_crossing_edges_examples():
    f1, f2 = expected_crossing_edges(cycle(5), enumerate_stats(cycle(5), 1.0))
    assert abs(f1 - 30 / 11) <= 1e-12
    assert abs(f1 - f2) <= 1e-14
    f1, f2 = expected_crossing_edges(star(3), enumerate_stats(star(3), 1.0))
    assert abs(f1 - 5 / 3) <= 1e-12
    assert abs(f1 - f2) <= 1e-14


def test_semi_bipartite_lower_bound_holds():
    for g in (cycle(5), cycle(7), petersen()):
        lam = auto_fugacity(g)
        f1, _ = expected_crossing_edges(g, enumerate_stats(g, lam))
        assert f1 >= semi_bipartite_lower_bound(g, lam, lam) - 1e-9
    with pytest.raises(InputError):
        semi_bipartite_lower_bound(star(0), 1.0, 1.0)


def _search_nodes(g, lists, budget=10**6):
    counter = [0]
    colourable = _list_colourable(g, lists, budget, counter)
    return colourable, counter[0]


@pytest.mark.parametrize(
    "delta, nodes", [(3, 8), (4, 15), (5, 31), (6, 69), (7, 158), (8, 374)]
)
def test_search_node_counts_are_pinned(delta, nodes):
    inst = necessary_construction(delta, 1)
    assert _search_nodes(inst.graph, inst.lists) == (False, nodes)


@pytest.mark.parametrize("colour, nodes", [((1, 0), 23), ((2, 0), 17), ((99, 99), 30)])
def test_search_node_counts_with_extra_colour_are_pinned(colour, nodes):
    inst = necessary_construction(3, 1)
    extra = with_extra_colour(inst, inst.special_vertex, colour)
    assert _search_nodes(extra.graph, extra.lists) == (True, nodes)


# (verdict, search nodes) of each construction with delta 3-6 at levels 0
# and 1, as built and with one extra colour, recorded with the search that
# still tested for a repeated forced vertex and for an emptied domain.
PINNED_CONSTRUCTION_SEARCHES = {
    (3, 0): [(False, 1), (True, 1), (True, 1), (False, 1)],
    (3, 1): [(False, 8), (True, 23), (True, 20), (True, 23)],
    (4, 0): [(False, 1), (True, 1), (True, 1), (False, 1)],
    (4, 1): [(False, 15), (True, 58), (True, 54), (True, 58)],
    (5, 0): [(False, 1), (True, 1), (True, 1), (False, 1)],
    (5, 1): [(False, 31), (True, 152), (True, 147), (True, 152)],
    (6, 0): [(False, 1), (True, 1), (True, 1), (False, 1)],
    (6, 1): [(False, 69), (True, 410), (True, 404), (True, 410)],
}


@pytest.mark.parametrize("delta, level", sorted(PINNED_CONSTRUCTION_SEARCHES))
def test_construction_search_verdicts_and_nodes_are_pinned(delta, level):
    inst = necessary_construction(delta, level)
    variants = [
        inst,
        with_extra_colour(inst, inst.special_vertex, (0, 99)),
        with_extra_colour(inst, inst.b_side[0], (0, 99)),
        with_extra_colour(inst, inst.special_vertex, (1, 0)),
    ]
    assert [_search_nodes(v.graph, v.lists) for v in variants] == \
        PINNED_CONSTRUCTION_SEARCHES[delta, level]


def test_random_list_search_verdicts_and_nodes_are_pinned():
    """200 random graphs on at most 14 vertices with lists from at most 5
    colours, some of them empty; the sha256 of the (verdict, nodes) list
    was recorded with the search the construction test above names."""
    results = []
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(1, 14)
        p = rng.random() * 0.6
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        k = rng.randint(1, 5)
        lists = [
            rng.sample(range(k), rng.randint(0, k) if rng.random() < 0.1 else rng.randint(1, k))
            for _ in range(n)
        ]
        results.append(_search_nodes(Graph.from_edges(n, edges), lists))
    assert sum(verdict for verdict, _ in results) == 118
    assert sum(nodes for _, nodes in results) == 595
    assert hashlib.sha256(repr(results).encode()).hexdigest() == (
        "69e110cfb13f9cbf433a6433976ef962c9f5e224d692376e845688dcc7cdeff3"
    )


def test_smallest_sufficient_budget_is_pinned():
    inst = necessary_construction(3, 1)
    with pytest.raises(SizeError):
        verify_construction(inst, budget=7)
    assert verify_construction(inst, budget=8)[0]


def test_verify_construction_returns_both_verdicts():
    inst = necessary_construction(4, 1)
    assert verify_construction(inst) == (True, True)
    extra = with_extra_colour(inst, inst.special_vertex, (99, 99))
    assert verify_construction(extra) == (False, False)
    assert verify_construction(necessary_construction(3, 0)) == (True, True)


def test_delta8_level1_verifies():
    inst = necessary_construction(8, 1)
    # ceil(e^8 / 8) = 373 copies of K_{1,8} plus the universal vertex
    assert inst.graph.n == 373 * 9 + 1
    assert verify_construction(inst)[0]
    assert structural_not_colourable(inst) is True
