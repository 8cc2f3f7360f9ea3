"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion summaries on success).
"""

import math
import time

from hcchroma import (
    cycle,
    complete_bipartite,
    edgeless,
)
from hcchroma.constructions import (
    auto_fugacity,
    check_recursive_properties,
    expected_crossing_edges,
    necessary_construction,
    semi_bipartite_lower_bound,
    structural_not_colourable,
    verify_construction,
    with_extra_colour,
)
from hcchroma.dpcolor import (
    from_list_assignment,
    lll_certify,
    solve,
    verify_dp_colouring,
)
from hcchroma.fractional import (
    LocalWeights,
    extract_independent_set,
    greedy_fractional_colouring,
    hard_core_oracle,
    interval_measure,
    uniform_set_oracle,
    validate_colouring,
    vertex_interval_bound,
)
from hcchroma.hardcore import (
    conditional_fact_check,
    enumerate_stats,
    hcm_lower_bound,
)
from hcchroma.numerics import lambert_w

import helpers


def test_criterion_01_hardcore_facts_exact(tf_family):
    t0 = time.time()
    graphs = [g for n in range(1, 10) for g in tf_family[n]]
    worst = 0.0
    for g in graphs:
        for lam in (0.5, 1.0, 2.0):
            report = conditional_fact_check(g, lam)
            worst = max(worst, report.max_residual)
            assert report.max_residual <= 1e-12
    dt = time.time() - t0
    assert dt < 120
    print(
        f"CRITERION 1: PASS facts residual <= 1e-12 on {len(graphs)} graphs x 3 "
        f"fugacities (worst {worst:.2e}, {dt:.1f}s)"
    )


def test_criterion_02_occupancy_bound_grid(tf_family):
    t0 = time.time()
    grid = [(1.0, 1.0), (10.0, 1.0), (1.0, 10.0), (math.e, 1.0)]
    graphs = [g for n in range(1, 10) for g in tf_family[n]]
    worst = math.inf
    for g in graphs:
        for lam in (0.25, 0.5, 1.0, 2.0):
            stats = enumerate_stats(g, lam)
            for alpha, beta in grid:
                bound = hcm_lower_bound(lam, alpha, beta)
                for v in range(g.n):
                    slack = (
                        alpha * stats.occupancy[v]
                        + beta * stats.neighbour_occupancy[1][v]
                        - bound
                    )
                    worst = min(worst, slack)
                    assert slack >= -1e-10
    dt = time.time() - t0
    assert dt < 300
    print(
        f"CRITERION 2: PASS occupancy bound on {len(graphs)} graphs x 4 fugacities "
        f"x 4 weight pairs (worst slack {worst:.2e}, {dt:.1f}s)"
    )


def test_criterion_03_greedy_hand_traces():
    k1 = edgeless(1)
    col = greedy_fractional_colouring(
        k1, LocalWeights.from_alpha(k1, [(2.0, 0.0)]), hard_core_oracle(1.0)
    )
    assert len(col.taus) == 1 and abs(col.taus[0] - 2.0) <= 1e-9
    assert abs(col.total - 2.0) <= 1e-9
    assert abs(interval_measure(col.parts.get((), ())) - 1.0) <= 1e-9
    assert abs(interval_measure(col.parts.get((0,), ())) - 1.0) <= 1e-9

    k2 = complete_bipartite(1, 1)
    col = greedy_fractional_colouring(
        k2, LocalWeights.from_alpha(k2, [(3.0, 0.0)] * 2), hard_core_oracle(1.0)
    )
    assert len(col.taus) == 1 and abs(col.taus[0] - 3.0) <= 1e-9
    assert abs(col.total - 3.0) <= 1e-9
    for s in ((), (0,), (1,)):
        assert abs(interval_measure(col.parts.get(s, ())) - 1.0) <= 1e-9

    c5 = cycle(5)
    max_sets = [(0, 2), (1, 3), (2, 4), (0, 3), (1, 4)]
    col = greedy_fractional_colouring(
        c5, LocalWeights.from_alpha(c5, [(2.5, 0.0)] * 5), uniform_set_oracle(max_sets)
    )
    assert len(col.taus) == 1 and abs(col.taus[0] - 2.5) <= 1e-9
    assert abs(col.total - 2.5) <= 1e-9
    for s in max_sets:
        assert abs(interval_measure(col.parts.get(s, ())) - 0.5) <= 1e-9
    print("CRITERION 3: PASS hand-simulated traces reproduced (K1, K2, C5; total C5 = 5/2)")


def test_criterion_04_pipeline_property(pipeline_runs):
    t0 = time.time()
    for g, eps, lam, weights, colouring in pipeline_runs:
        assert len(colouring.taus) <= g.n
        bounds = [vertex_interval_bound(lam, g.degree(v)) for v in range(g.n)]
        report = validate_colouring(g, colouring, bounds)
        assert report.ok, report.failures[:3]
        for v in range(g.n):
            a, b = weights.alpha[v]
            assert abs(hcm_lower_bound(lam, a, b) - 1.0) <= 1e-9
    dt = time.time() - t0
    assert dt < 600
    print(
        f"CRITERION 4: PASS pipeline on {len(pipeline_runs)} runs "
        f"(50 graphs x 3 epsilons) validated against the degree bound ({dt:.1f}s)"
    )


def test_criterion_05_finishing_blow_random_covers():
    t0 = time.time()
    sizes = [50, 80, 120, 160, 200]
    failures = 0
    min_slack = math.inf
    count = 0
    for i in range(100):
        n = sizes[i % len(sizes)]
        cover = helpers.random_cover(n, 4.0, 24, 3, seed=2000 + i)
        report = lll_certify(cover, 24)
        assert report.certified and report.proof_slack > 0
        min_slack = min(min_slack, report.proof_slack)
        try:
            choice = solve(cover, seed=31 * i + 7, max_resamples=10**6, ell=24)
        except Exception:
            failures += 1
            continue
        ok, msg = verify_dp_colouring(cover, choice)
        assert ok, msg
        count += 1
    assert failures == 0
    dt = time.time() - t0
    assert dt < 300
    print(
        f"CRITERION 5: PASS {count} certified covers solved with 0 failures "
        f"(min certificate slack {min_slack:.2e}, {dt:.1f}s)"
    )


def test_criterion_06_list_round_trip():
    t0 = time.time()
    for i in range(50):
        n = 20 + (i % 5) * 10
        g, lists, cover, labels = helpers.random_list_instance(
            n, 3.5, 24, 400, seed=3000 + i
        )
        choice = solve(cover, seed=17 * i + 1)
        colouring = {u: labels[node] for u, node in choice.items()}
        for u in range(g.n):
            assert colouring[u] in lists[u]
        for u, v in g.edges():
            assert colouring[u] != colouring[v]
    dt = time.time() - t0
    print(f"CRITERION 6: PASS 50 list instances solved to proper list colourings ({dt:.1f}s)")


def test_criterion_07_necessary_construction():
    t0 = time.time()
    inst = necessary_construction(3, 1)
    props = check_recursive_properties(inst)
    assert props.ok, props.failures
    assert verify_construction(inst)[0]
    assert structural_not_colourable(inst) is True
    v1 = inst.special_vertex
    seen = set().union(*inst.lists)
    extras = sorted(seen - inst.lists[v1]) + [(99, 99)]
    for extra in extras:
        assert not verify_construction(with_extra_colour(inst, v1, extra))[0]
    dt = time.time() - t0
    assert dt < 120
    print(
        f"CRITERION 7: PASS construction(3, 1): properties hold, not colourable, "
        f"and every one of {len(extras)} single extra colours makes it colourable ({dt:.1f}s)"
    )


def test_criterion_08_semibipartite_inequality(tf_family):
    t0 = time.time()
    checked = 0
    worst = math.inf
    worst_pair = 0.0
    for n in range(1, 10):
        for g in tf_family[n]:
            if g.n == 0 or min(g.degree(v) for v in range(g.n)) < 2:
                continue
            lam = auto_fugacity(g)
            f1, f2 = expected_crossing_edges(g, lam)
            worst_pair = max(worst_pair, abs(f1 - f2))
            assert abs(f1 - f2) <= 1e-12
            bound = semi_bipartite_lower_bound(g, lam, lam)
            worst = min(worst, f1 - bound)
            assert f1 - bound >= -1e-9
            checked += 1
    dt = time.time() - t0
    print(
        f"CRITERION 8: PASS boundary-expectation bound on {checked} min-degree-2 "
        f"graphs (worst slack {worst:.2e}, double-count gap {worst_pair:.2e}, {dt:.1f}s)"
    )


def test_criterion_09_extraction(pipeline_runs):
    for g, eps, lam, weights, colouring in pipeline_runs:
        picked = extract_independent_set(g, colouring)
        need = math.ceil(g.n / colouring.total - 1e-9)
        assert len(picked) >= need
        adj = g.adjacency
        assert all(v not in adj[u] for u in picked for v in picked if u != v)
    print(
        f"CRITERION 9: PASS extraction met the ceil(n / total) size guarantee on "
        f"{len(pipeline_runs)} colourings"
    )


def test_criterion_10_lambert_grid():
    assert lambert_w(0.0) == 0.0
    assert abs(lambert_w(math.e) - 1.0) <= 1e-14
    worst = 0.0
    for i in range(1000):
        w = 20.0 * (i + 1) / 1000.0
        x = w * math.exp(w)
        worst = max(worst, abs(lambert_w(x) - w))
        assert abs(lambert_w(x) - w) <= 1e-10
    print(f"CRITERION 10: PASS Lambert W round-trip on 1000-point grid (worst {worst:.2e})")
