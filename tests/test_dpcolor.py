import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hcchroma import (
    Cover,
    HypothesisError,
    InputError,
    SizeError,
    complete,
    complete_bipartite,
    cycle,
    edgeless,
)
from hcchroma.dpcolor import (
    _random_partial,
    dump_cover,
    finishing_blow_hypothesis,
    from_list_assignment,
    lll_certify,
    load_cover,
    residual_cover,
    solve,
    truncate_lists,
    two_phase_colour,
    validate_cover,
    verify_dp_colouring,
)
from hcchroma.graph import path, write_edge_list

import helpers

K2 = complete_bipartite(1, 1)


def test_from_list_assignment_examples():
    cover, labels = from_list_assignment(K2, [{1, 2}, {2, 3}])
    assert len(cover.cross_edges) == 1
    (a, b) = next(iter(cover.cross_edges))
    assert labels[a] == labels[b] == 2
    assert validate_cover(cover).ok

    cover2, _ = from_list_assignment(K2, [{1, 2}, {3, 4}])
    assert not cover2.cross_edges

    c5 = cycle(5)
    cover3, _ = from_list_assignment(c5, [{1, 2, 3}] * 5)
    assert cover3.num_colour_nodes == 15
    assert len(cover3.cross_edges) == 15
    assert all(len(helpers.star_adjacency(cover3)[c]) == 2 for c in range(15))


def test_star_degree_examples():
    cover, labels = from_list_assignment(K2, [{1, 2}, {2, 3}])
    for node in range(4):
        expected = 1 if labels[node] == 2 else 0
        assert len(helpers.star_adjacency(cover)[node]) == expected


@pytest.mark.parametrize("owner, cross, message", [
    ((0, 2), (), "owner 2 out of range"),
    ((0, -1), (), "owner -1 out of range"),
    ((0, 1), {(1, 1)}, r"cross edge \(1,1\) is a loop"),
    ((0, 1), {(0, 2)}, r"cross edge \(0,2\) out of range"),
    ((0, 1), {(1, 0), (-1, 0)}, r"cross edge \(-1,0\) out of range"),
], ids=["owner-high", "owner-negative", "loop", "edge-high", "edge-negative"])
def test_cover_rejects_out_of_range_ids(owner, cross, message):
    with pytest.raises(InputError, match=message):
        Cover(K2, owner, frozenset(cross))


@pytest.mark.parametrize("owner, message", [
    ((0.9, 1.5, True), "owner 0.9 is not an int"),
    ((0, 1.0), "owner 1.0 is not an int"),
    ((0, True), "owner True is not an int"),
    ((0, "1"), "owner '1' is not an int"),
], ids=["floats", "integral-float", "bool", "string"])
def test_cover_rejects_owners_that_are_not_ints(owner, message):
    with pytest.raises(InputError, match=message):
        Cover(edgeless(2), owner, frozenset())


@pytest.mark.parametrize("edge", [
    (0, 1, 2), (0,), 5, ("a", "b"), (True, 2), (0.0, 1.5),
], ids=["triple", "single", "int", "strings", "bool", "floats"])
def test_cover_rejects_cross_edges_that_are_not_pairs_of_ints(edge):
    with pytest.raises(InputError) as exc:
        Cover(path(3), (0, 1, 2), frozenset({edge}))
    assert str(exc.value) == f"cross edge {edge!r} is not a pair of ints"


def test_cover_canonicalises_cross_edges():
    cover = Cover(K2, (0, 0, 1, 1), frozenset({(3, 0), (1, 2)}))
    assert cover.cross_edges == {(0, 3), (1, 2)}
    assert Cover(K2, (0, 1), [[1, 0]]).cross_edges == {(0, 1)}


def test_validate_cover_detects_violations():
    # empty cover on the empty graph is valid
    assert validate_cover(Cover(edgeless(0), (), frozenset())).ok
    # cross edge between non-adjacent owners
    bad = Cover(edgeless(2), (0, 1), frozenset({(0, 1)}))
    report = validate_cover(bad)
    assert not report.ok and "non-adjacent" in report.violations[0]
    # matching violation: one node with two partners in the same list
    bad2 = Cover(K2, (0, 0, 1, 1), frozenset({(0, 2), (0, 3)}))
    report2 = validate_cover(bad2)
    assert not report2.ok
    assert any("matching" in v for v in report2.violations)
    # same-owner cross edge
    bad3 = Cover(K2, (0, 0, 1), frozenset({(0, 1)}))
    assert not validate_cover(bad3).ok


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_validate_cover_matches_the_reference(data):
    """Random owners and cross edges, most of them breaking some axiom."""
    g = data.draw(helpers.triangle_free_graphs(max_n=8))
    owner = data.draw(st.lists(st.integers(0, max(g.n - 1, 0)), max_size=4 * g.n))
    pairs = list(itertools.combinations(range(len(owner)), 2))
    cross = data.draw(st.lists(st.sampled_from(pairs), max_size=20)) if pairs else []
    cover = Cover(g, tuple(owner), frozenset(cross))
    assert validate_cover(cover) == helpers.reference_validate_cover(cover)


def test_finishing_blow_examples():
    # no cross edges, lists of size 3: pass
    cover, _ = from_list_assignment(K2, [{1, 2, 3}, {4, 5, 6}])
    assert finishing_blow_hypothesis(cover, 3).ok
    # one shared colour: deg* = 1 > 3/8
    cover2, _ = from_list_assignment(K2, [{1, 2}, {2, 3}])
    report = finishing_blow_hypothesis(cover2, 3)
    assert not report.ok
    # ell below 3 is rejected
    assert not finishing_blow_hypothesis(cover, 2).ok
    # isolated base vertices are vacuous
    cover3, _ = from_list_assignment(edgeless(2), [{1, 2, 3}, {1, 2, 3}])
    assert finishing_blow_hypothesis(cover3, 3).ok
    # random cover with lists 24 and deg* <= 3 passes
    cover4 = helpers.random_cover(30, 4.0, 24, 3, seed=5)
    assert finishing_blow_hypothesis(cover4, 24).ok


def test_truncate_lists():
    cover, _ = from_list_assignment(K2, [{1, 2, 3, 4}, {1, 2, 3, 4}])
    trunc, node_map = truncate_lists(cover, 3)
    assert all(len(lst) == 3 for lst in trunc.lists)
    # lexicographically first nodes survive
    assert node_map == (0, 1, 2, 4, 5, 6)
    with pytest.raises(InputError):
        truncate_lists(cover, 5)


def test_lll_certify_vacuous_and_strict():
    cover, _ = from_list_assignment(K2, [{1, 2, 3}, {4, 5, 6}])
    report = lll_certify(cover, 3)
    assert report.certified and report.num_bad_events == 0
    cover2, _ = from_list_assignment(K2, [{1, 2}, {2, 3}])
    with pytest.raises(HypothesisError):
        lll_certify(cover2, 3)


def test_lll_certify_isolated_cross_edge():
    # lists of 8 and star degree 1 <= 8/8: the hypothesis holds
    cover = Cover(K2, (0,) * 8 + (1,) * 8, frozenset({(0, 8)}))
    report = lll_certify(cover, 8)
    x = 3 / 64
    expected = x * math.exp(-1.4 * x) - 1 / 64
    assert report.certified and report.num_bad_events == 1
    assert abs(report.proof_slack - expected) <= 1e-12
    # raw product form: x * (1 - x')^0 over the dependency set minus itself
    assert abs(report.glll_slack - (x - 1 / 64)) <= 1e-12


def test_lll_certify_random_cover():
    cover = helpers.random_cover(40, 4.0, 24, 3, seed=11)
    report = lll_certify(cover, 24)
    assert report.certified and report.proof_slack > 0
    assert report.max_x < 0.5


def test_solve_trivial_and_k2():
    cover, _ = from_list_assignment(K2, [{1, 2, 3}, {4, 5, 6}])
    choice = solve(cover, seed=0)
    assert verify_dp_colouring(cover, choice)[0]

    full, labels = from_list_assignment(K2, [{1, 2, 3}, {1, 2, 3}])
    for seed in range(10):
        choice = solve(full, seed=seed)
        assert labels[choice[0]] != labels[choice[1]]

    empty_list_cover = Cover(K2, (1, 1), frozenset())
    with pytest.raises(InputError):
        solve(empty_list_cover, seed=0)


def test_solve_gives_up_on_unsatisfiable():
    # single shared colour on both endpoints and lists of size one
    cover, _ = from_list_assignment(K2, [{1}, {1}])
    with pytest.raises(SizeError):
        solve(cover, seed=0, max_resamples=50)


def test_verify_rejects_bad_colourings():
    # nodes 0, 1 hold labels 1, 2 of vertex 0; nodes 2, 3 labels 2, 3 of vertex 1
    cover, _ = from_list_assignment(K2, [{1, 2}, {2, 3}])
    for choice, message in [
        ({0: 0, 1: 4}, "node 4 out of range"),
        ({0: -1, 1: 2}, "node -1 out of range"),
        ({0: 2, 1: 3}, "node 2 not owned by vertex 0"),
        ({0: 0, 1: 0}, "node 0 not owned by vertex 1"),
        ({0: 0}, "choice does not assign exactly the base vertices"),
        ({0: 0, 1: 3, 2: 1}, "choice does not assign exactly the base vertices"),
        ({0: 1, 1: 2}, "cross edge (1,2) has both ends chosen"),
    ]:
        assert verify_dp_colouring(cover, choice) == (False, message), choice
    assert verify_dp_colouring(cover, {0: 0, 1: 2}) == (True, "ok")


@pytest.mark.parametrize("choice, message", [
    ({0: 0.0, 1: 2}, "node 0.0 of vertex 0 is not an int"),
    ({0: "a", 1: 2}, "node 'a' of vertex 0 is not an int"),
    ({0: 0, 1: True}, "node True of vertex 1 is not an int"),
    ({0.0: 0, 1: 2}, "vertex 0.0 is not an int"),
    ({0: 0, "1": 2}, "vertex '1' is not an int"),
], ids=["float-node", "str-node", "bool-node", "float-vertex", "str-vertex"])
def test_verify_rejects_a_choice_that_is_not_ints(choice, message):
    # a float vertex 0.0 would pass the vertex-set check, since sorted keys
    # compare equal to range(n); a string one would make sorting them raise
    cover, _ = from_list_assignment(K2, [{1, 2}, {2, 3}])
    assert verify_dp_colouring(cover, choice) == (False, message)


@pytest.mark.parametrize("lists", [[[1, "a"], [1]], [[1], [2, [3]]], [[1], 5]],
                         ids=["mixed", "unhashable", "not-a-list"])
def test_from_list_assignment_rejects_labels_that_do_not_sort(lists):
    with pytest.raises(InputError, match="must hold hashable labels that sort together"):
        from_list_assignment(K2, lists)


def test_list_round_trip_proper_colouring():
    rng = random.Random(3)
    for seed in range(10):
        g, lists, cover, labels = helpers.random_list_instance(20, 3.0, 24, 400, seed)
        choice = solve(cover, seed=seed)
        colouring = {u: labels[node] for u, node in choice.items()}
        for u, v in g.edges():
            assert colouring[u] != colouring[v]
        for u in range(g.n):
            assert colouring[u] in lists[u]


def test_partial_state_residual_consistency():
    cover = helpers.random_cover(15, 3.0, 6, 3, seed=2)
    for seed in range(20):
        chosen = _random_partial(cover, random.Random(seed))
        # a partial H-colouring: owned nodes, no cross edge inside
        assert all(cover.owner[node] == u for u, node in chosen.items())
        picked = set(chosen.values())
        assert not any(a in picked and b in picked for a, b in cover.cross_edges)
        residual, node_map, base_map = residual_cover(cover, chosen)
        for old_u, expected in helpers.reference_residual_lists(cover, chosen).items():
            assert tuple(node_map[c] for c in residual.lists[base_map[old_u]]) == expected


@st.composite
def covers(draw):
    """General covers with equal lists, or list-assignment covers whose
    lists may be empty."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if draw(st.booleans()):
        return helpers.random_cover(
            draw(st.integers(min_value=0, max_value=25)),
            draw(st.floats(min_value=0.0, max_value=6.0)),
            draw(st.integers(min_value=1, max_value=6)),
            draw(st.integers(min_value=1, max_value=3)),
            seed,
        )
    g = draw(helpers.triangle_free_graphs())
    palette = draw(st.integers(min_value=1, max_value=6))
    lists = [draw(st.sets(st.integers(0, palette - 1))) for _ in range(g.n)]
    return from_list_assignment(g, lists)[0]


@settings(max_examples=150, deadline=None)
@given(covers(), st.integers(min_value=0, max_value=10**6))
def test_random_partial_matches_reference(cover, seed):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    assert _random_partial(cover, rng) == helpers.reference_random_partial(cover, ref_rng)
    # the same random draws were consumed
    assert rng.random() == ref_rng.random()


@st.composite
def dp_instances(draw):
    """A cover with an ell: a general cover, a list assignment whose lists
    may be empty, or a hypothesis-satisfying list instance; ell is one
    value or one per vertex, and may break the hypothesis (below 3, above
    a list's length, or too small for the star degrees)."""
    kind = draw(st.sampled_from(["general", "list", "list-instance"]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    if kind == "general":
        size = draw(st.integers(min_value=1, max_value=24))
        cover = helpers.random_cover(
            draw(st.integers(min_value=0, max_value=30)),
            draw(st.floats(min_value=0.0, max_value=6.0)),
            size, draw(st.integers(min_value=1, max_value=3)), seed)
    elif kind == "list":
        cover = draw(covers())
        size = 4
    else:
        size = draw(st.sampled_from([16, 24]))
        cover = helpers.random_list_instance(
            draw(st.integers(min_value=1, max_value=20)), 3.0, size, 400, seed)[2]
    target = st.integers(min_value=1, max_value=size + 1)
    if draw(st.booleans()):
        return cover, draw(target)
    return cover, draw(st.lists(target, min_size=cover.base.n, max_size=cover.base.n))


def _outcome(call, *args, **kwargs):
    """The call's result, or the type and text of the error it raised."""
    try:
        return call(*args, **kwargs)
    except (HypothesisError, InputError, SizeError) as exc:
        return type(exc), str(exc)


# Lists of 8 on a path, equal labels: the middle nodes have star degree
# 2 > 8/8, the end nodes degree 1, exactly the cap.
@example(instance=(from_list_assignment(path(3), [range(8)] * 3)[0], 8), seed=0)
@settings(max_examples=150, deadline=None)
@given(dp_instances(), st.integers(min_value=0, max_value=10**6))
def test_dp_solve_matches_the_reference_path(instance, seed):
    """The hypothesis from star degrees, the shared truncation, the
    per-list-pair slacks and the heap of violated edges give what the
    partner table, a truncation per use and a rescan per resample give."""
    cover, ell = instance
    assert validate_cover(cover) == helpers.reference_validate_cover(cover)
    report = finishing_blow_hypothesis(cover, ell)
    assert report == helpers.reference_finishing_blow_hypothesis(cover, ell)
    if report.ok:
        assert lll_certify(cover, ell) == helpers.reference_lll_certify(cover, ell)
    else:
        with pytest.raises(HypothesisError):
            lll_certify(cover, ell)
    for solve_ell in (ell, None):
        assert _outcome(solve, cover, seed=seed, max_resamples=300, ell=solve_ell) == \
            _outcome(helpers.reference_solve, cover, seed=seed, max_resamples=300, ell=solve_ell)
    assert two_phase_colour(cover, ell, rounds=3, seed=seed, max_resamples=300) == \
        helpers.reference_two_phase_colour(cover, ell, rounds=3, seed=seed, max_resamples=300)


@settings(max_examples=150, deadline=None)
@given(covers(), st.data())
def test_derived_covers_pass_the_checks_they_skip(cover, data):
    """List encodings, truncations and residuals, and their compositions,
    equal what the checked constructor makes of their fields."""
    derived = [cover]
    if all(cover.lists):
        ell = [data.draw(st.integers(1, len(lst))) for lst in cover.lists]
        derived.append(truncate_lists(cover, ell)[0])
    for c in list(derived):
        chosen = _random_partial(c, random.Random(data.draw(st.integers(0, 10**6))))
        residual = residual_cover(c, chosen)[0]
        derived.append(residual)
        if all(residual.lists):
            derived.append(truncate_lists(residual, 1)[0])
    for c in derived:
        assert type(c.owner) is tuple and type(c.cross_edges) is frozenset
        assert c == Cover(c.base, c.owner, c.cross_edges)


def test_truncation_is_shared_by_certify_and_solve():
    cover = helpers.random_cover(30, 4.0, 24, 3, seed=5)
    trunc = truncate_lists(cover, 16)
    assert truncate_lists(cover, [16] * 30) is trunc
    assert truncate_lists(cover, 15) is not trunc
    assert lll_certify(cover, 16) == helpers.reference_lll_certify(cover, 16)
    assert truncate_lists(cover, 16) is trunc


def test_residual_cover_structure():
    cover = helpers.random_cover(12, 3.0, 5, 3, seed=4)
    chosen = {0: cover.lists[0][0], 5: cover.lists[5][2]}
    residual, node_map, base_map = residual_cover(cover, chosen)
    assert residual.base.n == 10
    assert validate_cover(residual).ok
    for new_node, old_node in enumerate(node_map):
        assert cover.owner[old_node] not in chosen
        assert base_map[cover.owner[old_node]] == residual.owner[new_node]
    # the cross edges kept are exactly those with both ends kept
    kept = set(node_map)
    assert {(node_map[a], node_map[b]) for a, b in residual.cross_edges} == {
        e for e in cover.cross_edges if kept.issuperset(e)
    }
    # residual lists match a recomputation from scratch
    for old_u, expected in helpers.reference_residual_lists(cover, chosen).items():
        new_u = base_map[old_u]
        assert tuple(node_map[c] for c in residual.lists[new_u]) == expected


def test_two_phase_on_c5():
    c5 = cycle(5)
    cover, labels = from_list_assignment(c5, [{1, 2, 3}] * 5)
    # exhaustive oracle: a proper DP-colouring exists
    lists = cover.lists
    exists = any(
        verify_dp_colouring(cover, dict(enumerate(pick)))[0]
        for pick in itertools.product(*lists)
    )
    assert exists
    result = two_phase_colour(cover, 3, rounds=10, seed=1)
    assert result.colouring is not None
    assert verify_dp_colouring(cover, result.colouring)[0]


def test_two_phase_requires_triangle_free():
    k3 = complete(3)
    cover, _ = from_list_assignment(k3, [{1, 2, 3}] * 3)
    with pytest.raises(HypothesisError):
        two_phase_colour(cover, 3, rounds=1, seed=0)


def test_two_phase_certified_path():
    cover = helpers.random_cover(40, 4.0, 24, 3, seed=21)
    result = two_phase_colour(cover, 24, rounds=5, seed=3)
    assert result.colouring is not None
    assert verify_dp_colouring(cover, result.colouring)[0]


def test_two_phase_failure_reports_diagnostics():
    # lists far too small and heavily matched: hypothesis can never pass
    cover, _ = from_list_assignment(K2, [{1}, {1}])
    result = two_phase_colour(cover, 3, rounds=2, seed=0, max_resamples=20)
    assert result.colouring is None
    assert result.rounds_used == 2
    assert "residual_min_list" in result.diagnostics


@pytest.mark.parametrize("rounds", [0, -3])
def test_two_phase_rejects_rounds_below_one(rounds):
    cover, _ = from_list_assignment(cycle(5), [{1, 2, 3}] * 5)
    with pytest.raises(InputError, match="rounds"):
        two_phase_colour(cover, 3, rounds=rounds)


@pytest.mark.parametrize("ell", [0, -1, [3, 3, 0, 3, 3]], ids=["zero", "negative", "one-zero"])
def test_every_ell_consumer_rejects_ell_below_one(ell):
    cover, _ = from_list_assignment(cycle(5), [{1, 2, 3}] * 5)
    for call in (
        lambda: truncate_lists(cover, ell),
        lambda: finishing_blow_hypothesis(cover, ell),
        lambda: lll_certify(cover, ell),
        lambda: solve(cover, seed=0, ell=ell),
        lambda: two_phase_colour(cover, ell),
    ):
        with pytest.raises(InputError, match="ell must be at least 1"):
            call()


def test_solve_and_two_phase_reject_negative_max_resamples():
    cover, _ = from_list_assignment(cycle(5), [{1, 2, 3}] * 5)
    with pytest.raises(InputError, match="max_resamples"):
        solve(cover, seed=0, max_resamples=-1)
    with pytest.raises(InputError, match="max_resamples"):
        two_phase_colour(cover, 3, max_resamples=-5)
    # 0 stays legal: a draw needing no resample is returned, any other gives up
    disjoint, _ = from_list_assignment(K2, [{1}, {2}])
    assert solve(disjoint, seed=0, max_resamples=0) == {0: 0, 1: 1}
    clash, _ = from_list_assignment(K2, [{1}, {1}])
    with pytest.raises(SizeError):
        solve(clash, seed=0, max_resamples=0)


def test_cover_file_round_trip(tmp_path):
    g = cycle(5)
    gpath = tmp_path / "c5.edges"
    write_edge_list(g, gpath)
    # list mode
    import json

    cover_path = tmp_path / "cover.json"
    cover_path.write_text(
        json.dumps({"graph": "c5.edges", "lists": {str(v): [1, 2, 3] for v in range(5)}})
    )
    cover, labels = load_cover(cover_path)
    assert cover.num_colour_nodes == 15 and labels is not None
    # general mode round trip
    gen_path = tmp_path / "general.json"
    dump_cover(cover, gen_path, gpath)
    cover2, labels2 = load_cover(gen_path)
    assert labels2 is None
    assert cover2.owner == cover.owner
    assert cover2.cross_edges == cover.cross_edges


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_solve_outputs_always_verify(seed):
    cover = helpers.random_cover(12, 3.0, 8, 1, seed=seed)
    choice = solve(cover, seed=seed)
    assert verify_dp_colouring(cover, choice)[0]
