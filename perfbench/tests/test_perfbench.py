"""Self-tests of the benchmark: tiny workloads, checkers, span arithmetic, compare.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import checks
import compare
import run
import spans
import workloads

WORKLOADS = tuple(workloads.PLANNERS)


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def tiny_outputs(cli, workload, workdir):
    """Run the tiny plan of ``workload`` once; map label -> (invocation, parsed output)."""
    plan = workloads.build(workload, 7, str(workdir), "tiny")
    out = {}
    for inv in plan.invocations:
        assert cli.main(list(inv.argv)) == 0, inv.label
        with open(inv.output, encoding="utf-8") as fh:
            out[inv.label] = (inv, json.load(fh))
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_runs_without_failures(workload):
    result = run.run_one(workload, seed=3, seconds=0.01, trace=False, scale="tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = run.load_spec()
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tiny_traced_run_emits_every_layer_metric():
    result = run.run_one("frac-exact", seed=3, seconds=0.01, trace=True, scale="tiny")
    assert result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == {m["name"] for m in run.load_spec()["per_layer"]}
    assert 0.0 < metrics["trace.self_sum_ratio"] < 1.0
    assert metrics["hardcore.independent_set_masks.sets"] > 0
    assert metrics["fractional.rounds"] == metrics["fractional.oracle.calls"]
    assert 0.0 <= metrics["cli.identical_output_ratio"] <= 1.0


def test_inputs_depend_only_on_the_seed(tmp_path):
    for workload in WORKLOADS:
        a, b, c = (tmp_path / x for x in "abc")
        workloads.build(workload, 11, str(a), "tiny")
        workloads.build(workload, 11, str(b), "tiny")
        workloads.build(workload, 12, str(c), "tiny")
        names = sorted(os.listdir(a))
        assert names == sorted(os.listdir(b))
        same = [(a / n).read_bytes() == (b / n).read_bytes() for n in names]
        assert all(same), workload
        differ = [(a / n).read_bytes() != (c / n).read_bytes() for n in names]
        assert any(differ), workload


def _reject(inv, data):
    with pytest.raises(checks.CheckError):
        inv.check(data)


def test_frac_colour_checker_rejects_corruptions(cli, tmp_path):
    outs = tiny_outputs(cli, "frac-exact", tmp_path)
    inv, good = outs["frac-colour n=10 eps=1"]
    inv.check(good)
    adj = inv.check.keywords["adj"]

    overlap = copy.deepcopy(good)
    a, b = overlap["parts"][1]["intervals"][0]
    overlap["parts"][1]["intervals"][0] = [a - 0.25 * (b - a) - 1e-6, b]
    _reject(inv, overlap)

    dependent = copy.deepcopy(good)
    u = next(v for v in range(len(adj)) if adj[v])
    w = (adj[u] & -adj[u]).bit_length() - 1
    part = next(p for p in dependent["parts"] if u in p["set"] and w not in p["set"])
    part["set"] = sorted(part["set"] + [w])
    _reject(inv, dependent)

    short = copy.deepcopy(good)
    part = max((p for p in short["parts"] if 0 in p["set"]),
               key=lambda p: sum(b - a for a, b in p["intervals"]))
    part["set"].remove(0)
    _reject(inv, short)

    untiled = copy.deepcopy(good)
    untiled["total"] = good["total"] * 2
    _reject(inv, untiled)


def test_dp_solve_checker_rejects_a_cross_edge_with_both_ends_chosen(cli, tmp_path):
    outs = tiny_outputs(cli, "dp-construct", tmp_path)
    inv, good = outs["dp-solve general certify"]
    inv.check(good)
    with open(inv.check.keywords["cover_path"], encoding="utf-8") as fh:
        cover = json.load(fh)
    a, b = cover["cross_edges"][0]
    bad = copy.deepcopy(good)
    bad["choice"][str(cover["owner"][a])] = a
    bad["choice"][str(cover["owner"][b])] = b
    _reject(inv, bad)

    inv, good = outs["dp-solve list two-phase"]
    inv.check(good)
    bad = copy.deepcopy(good)
    bad["labels"]["0"] = -1
    _reject(inv, bad)


def test_construct_checker_rejects_a_colourable_report(cli, tmp_path):
    outs = tiny_outputs(cli, "dp-construct", tmp_path)
    inv, good = outs["construct delta=3"]
    inv.check(good)
    for key in ("not_colourable", "properties_ok"):
        bad = dict(good, **{key: False})
        _reject(inv, bad)


def test_stats_checkers_reject_corruptions(cli, tmp_path):
    outs = tiny_outputs(cli, "stats", tmp_path)
    inv, good = outs["hardcore-stats exact n=11"]
    inv.check(good)
    bad = copy.deepcopy(good)
    bad["fact_check"]["fact2_residual"] = 1e-6
    _reject(inv, bad)
    bad = copy.deepcopy(good)
    bad["neighbour_occupancy"]["1"][0] += 1e-6
    _reject(inv, bad)

    inv, good = outs["semibip exact n=11"]
    inv.check(good)
    adj = inv.check.keywords["adj"]
    u = next(v for v in good["B"] if adj[v] & sum(1 << a for a in good["A"]))
    bad = copy.deepcopy(good)
    bad["A"] = sorted(bad["A"] + [u])
    bad["B"].remove(u)
    _reject(inv, bad)
    bad = dict(good, boundary_edges=good["boundary_edges"] + 1)
    _reject(inv, bad)


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        spans.Span("cli.frac-colour", 0.0, 10.0, -1, 1),
        spans.Span("fractional.greedy_fractional_colouring", 1.0, 4.0, 0, 1),
        spans.Span("fractional.oracle", 2.0, 3.0, 1, 1),
        spans.Span("fractional.validate_colouring", 5.0, 6.5, 0, 1),
        spans.Span("graph.read_edge_list", 11.0, 12.0, -1, 2),
    ]
    assert spans.self_times(tree) == pytest.approx([5.5, 2.0, 1.0, 1.5, 1.0])
    m = spans.layer_metrics(tree[:4], spans.self_times(tree)[:4], {}, 10.0)
    assert m["cli.frac-colour.self_s"] == pytest.approx(5.5)
    assert m["fractional.self_s"] == pytest.approx(4.5)
    assert m["fractional.greedy_fractional_colouring.s"] == pytest.approx(3.0)
    assert m["trace.self_sum_ratio"] == pytest.approx(0.45)  # all but the root's 5.5 s
    assert m["dpcolor.solve.calls"] == 0


def test_wrapping_is_best_effort_and_reversible(cli, monkeypatch):
    from hcchroma import fractional, hardcore

    original = fractional.induced_subgraph
    monkeypatch.delattr(hardcore, "exact_distribution")
    tracer = spans.Tracer()
    tracer.instrument()
    try:
        assert "hardcore.exact_distribution" in tracer.missing
        assert fractional.induced_subgraph is not original
        assert fractional.induced_subgraph.__wrapped__ is original
    finally:
        tracer.uninstrument()
    assert fractional.induced_subgraph is original


FAKE_CLI = """
import json

_memo = {}


def main(argv):
    key = tuple(argv)
    hit = key in _memo
    _memo[key] = True
    with open(argv[argv.index("--output") + 1], "w") as fh:
        json.dump({"memo_hit": hit}, fh)
    return 0
"""


@pytest.fixture
def memoising_package(tmp_path, monkeypatch):
    """A stand-in ``hcchroma`` whose ``cli.main`` keeps a module-level memo."""
    src = tmp_path / "src"
    (src / "hcchroma").mkdir(parents=True)
    (src / "hcchroma" / "__init__.py").write_text("")
    (src / "hcchroma" / "cli.py").write_text(FAKE_CLI)
    monkeypatch.setattr(run, "SRC", str(src))
    monkeypatch.setattr(sys, "path", list(sys.path))
    yield tmp_path
    for name in [m for m in sys.modules if m == "hcchroma" or m.startswith("hcchroma.")]:
        del sys.modules[name]


def test_module_level_memo_is_not_hit_by_a_later_invocation(memoising_package):
    def no_memo_hit(data):
        if data["memo_hit"]:
            raise checks.CheckError("a module-level memo survived into this invocation")

    out = str(memoising_package / "out.json")
    inv = workloads.Invocation("memo", ("frac-colour", "--output", out), no_memo_hit)
    plan = workloads.Plan((inv,), ("memo",), "memo")
    harness = run.Harness()
    harness.measure(plan, 0.0)
    harness.measure(plan, 0.0)
    assert harness.attempted == 2 and harness.failed == 0


def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    assert compare.verdict(base, [x * 0.8 for x in base], 0.1, True) == "improved"
    assert compare.verdict(base, [x * 1.2 for x in base], 0.1, True) == "worse"
    assert compare.verdict(base, [x * 1.01 for x in base], 0.1, True) == "unchanged"
    noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
    assert compare.verdict(base, noisy, 0.1, True) == "unresolved"
    assert compare.verdict(base, [x * 1.2 for x in base], 0.1, False) == "improved"
    assert compare.verdict(base[:3], [x * 0.8 for x in base[:3]], 0.1, True) == "unresolved"


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stats", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
