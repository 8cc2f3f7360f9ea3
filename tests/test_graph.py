import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcchroma import (
    Graph,
    InputError,
    FormatError,
    SizeError,
    complete,
    complete_bipartite,
    cycle,
    edgeless,
    format_edge_list,
    induced_subgraph,
    is_triangle_free,
    parse_edge_list,
    path,
    petersen,
    random_triangle_free,
    star,
    vertex_set,
)
from hcchroma import constructions
from hcchroma import graph as graph_module
from hcchroma.graph import MAX_VERTICES

import helpers


@st.composite
def graphs(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph.from_edges(n, picks)


def test_construction_validates():
    with pytest.raises(InputError):
        Graph(1, ((0,),))  # loop
    with pytest.raises(InputError):
        Graph(2, ((1,), ()))  # asymmetric
    with pytest.raises(InputError):
        Graph(2, ((1, 1), (0, 0)))  # duplicates
    with pytest.raises(InputError):
        Graph.from_edges(2, [(0, 5)])


@pytest.mark.parametrize(
    "n, adjacency",
    [
        (2, ((5,), ())),  # out of range
        (2, ((-1,), ())),  # out of range
        (1, ((0,),)),  # loop
        (3, ((2, 1), (0,), (0,))),  # unsorted
        (2, ((1, 1), (0, 0))),  # duplicate
        (2, ((1,), ())),  # asymmetric
        (3, ((1,), (0, 2), (1, 0))),  # unsorted and asymmetric
        (-1, ()),  # negative vertex count
        (2, ((1,),)),  # too few rows
    ],
)
def test_constructor_rejects_malformed_adjacency(n, adjacency):
    with pytest.raises(InputError):
        Graph(n, adjacency)


@pytest.mark.parametrize(
    "n, edges",
    [
        (2, [(0, 5)]),  # out of range
        (2, [(-1, 0)]),  # out of range
        (2, [(1, 1)]),  # loop
        (3, [(0, 1), (0, 1)]),  # duplicate
        (3, [(0, 1), (1, 0)]),  # duplicate, reversed
        (-1, []),  # negative vertex count
    ],
)
def test_from_edges_rejects_bad_edges(n, edges):
    with pytest.raises(InputError):
        Graph.from_edges(n, edges)


def test_from_edges_builds_a_valid_graph():
    g = Graph.from_edges(4, [(2, 0), (3, 1), (0, 1)])
    assert g.adjacency == ((1, 2), (0, 3), (0,), (1,))
    assert g == Graph(4, g.adjacency)  # the constructor's checks accept it
    assert hash(g) == hash(Graph(4, g.adjacency))


def test_basic_counts():
    c5 = cycle(5)
    assert c5.n == 5 and c5.m == 5
    assert all(c5.degree(v) == 2 for v in range(5))
    s3 = star(3)
    assert sorted(s3.degree(v) for v in range(4)) == [1, 1, 1, 3]
    assert complete_bipartite(2, 3).m == 6
    assert edgeless(4).m == 0


def test_triangle_free_examples():
    assert is_triangle_free(cycle(5))
    assert not is_triangle_free(complete(3))
    assert is_triangle_free(petersen())
    assert not helpers.brute_has_triangle(petersen())


@settings(max_examples=80, deadline=None)
@given(graphs())
def test_triangle_free_matches_brute_scan(g):
    assert is_triangle_free(g) == (not helpers.brute_has_triangle(g))
    assert "adjacency_masks" not in g.__dict__


@settings(max_examples=60, deadline=None)
@given(helpers.triangle_free_graphs(), st.data())
def test_triangle_check_on_triangle_free_graphs_with_one_triangle_added(g, data):
    assert is_triangle_free(g) and not helpers.brute_has_triangle(g)
    assert "adjacency_masks" not in g.__dict__
    if g.n < 3:
        return
    tri = data.draw(st.lists(st.integers(0, g.n - 1), min_size=3, max_size=3, unique=True))
    edges = set(g.edges()) | {(min(a, b), max(a, b)) for a, b in itertools.combinations(tri, 2)}
    h = Graph.from_edges(g.n, sorted(edges))
    assert not is_triangle_free(h) and helpers.brute_has_triangle(h)
    assert "adjacency_masks" not in h.__dict__


def test_induced_subgraph_examples():
    c5 = cycle(5)
    sub, relabel = induced_subgraph(c5, [0, 1, 2])
    assert sub == path(3)
    assert relabel == {0: 0, 1: 1, 2: 2}
    sub, _ = induced_subgraph(c5, [])
    assert sub.n == 0
    outer, _ = induced_subgraph(petersen(), range(5))
    assert outer == cycle(5)
    with pytest.raises(InputError):
        induced_subgraph(c5, [9])


@settings(max_examples=40, deadline=None)
@given(graphs(), st.data())
def test_induced_preserves_triangle_freeness(g, data):
    keep = data.draw(st.lists(st.integers(0, g.n - 1), unique=True))
    sub, _ = induced_subgraph(g, keep)
    if is_triangle_free(g):
        assert is_triangle_free(sub)
    # both graphs skipped the constructor's checks; it accepts them
    assert Graph(g.n, g.adjacency) == g
    assert Graph(sub.n, sub.adjacency) == sub


def test_random_triangle_free_is_triangle_free():
    g = random_triangle_free(50, 0.1, seed=1)
    assert is_triangle_free(g)
    assert not helpers.brute_has_triangle(g)


@pytest.mark.parametrize("seed", range(5))
def test_random_triangle_free_destruction(seed):
    assert is_triangle_free(random_triangle_free(30, 0.4, seed))


def test_random_triangle_free_deterministic():
    assert random_triangle_free(20, 0.3, 5) == random_triangle_free(20, 0.3, 5)
    assert random_triangle_free(20, 0.3, 5) != random_triangle_free(20, 0.3, 6)


def test_vertex_set_canonical():
    assert vertex_set([3, 1, 1, 2]) == (1, 2, 3)


def test_edge_list_round_trip():
    g = petersen()
    text = format_edge_list(g)
    assert parse_edge_list(text) == g
    assert text.splitlines()[0] == "10 15"


def test_edge_list_parse_errors():
    with pytest.raises(FormatError):
        parse_edge_list("")
    with pytest.raises(FormatError):
        parse_edge_list("2\n")
    with pytest.raises(FormatError):
        parse_edge_list("2 1\n0 0\n")
    with pytest.raises(FormatError):
        parse_edge_list("2 2\n0 1\n")
    parsed = parse_edge_list("# comment\n3 1\n0 2\n")
    assert parsed.m == 1 and parsed.n == 3


def test_edge_list_header_above_the_vertex_limit_is_size_error(monkeypatch):
    # refused on the header alone: no graph is built, so a regression
    # fails here instead of allocating per-vertex structures
    def build(n, edges):
        raise AssertionError(f"built a graph on {n} vertices")

    monkeypatch.setattr(Graph, "from_edges", staticmethod(build))
    with pytest.raises(SizeError) as err:
        parse_edge_list("1000000000 0\n")
    assert str(err.value) == (
        f"edge list declares 1000000000 vertices, above the limit {MAX_VERTICES}")
    assert MAX_VERTICES > constructions.DEFAULT_SIZE_CAP  # construct's output reads back


def test_edge_list_header_at_the_vertex_limit_reads(monkeypatch):
    monkeypatch.setattr(graph_module, "MAX_VERTICES", 5)
    assert parse_edge_list("5 1\n0 4\n").n == 5
    with pytest.raises(SizeError):
        parse_edge_list("6 1\n0 4\n")


def test_connected_triangle_free_family_counts(tf_family):
    # OEIS A024607: connected triangle-free graphs on n = 1..9 vertices
    assert [len(tf_family[n]) for n in range(1, 10)] == [1, 1, 1, 3, 6, 19, 59, 267, 1380]
