import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hcchroma
from hcchroma import constructions, dpcolor, hardcore
from hcchroma.cli import main
from hcchroma.graph import (
    MAX_VERTICES,
    Graph,
    complete,
    complete_bipartite,
    cycle,
    edgeless,
    path,
    petersen,
    random_triangle_free,
    star,
    write_edge_list,
)
from hcchroma.dpcolor import dump_cover

import helpers


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def _strict_json(text):
    """``json.loads`` that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def _exit_code(argv):
    """``main``'s return code, with argparse's usage-error exit counted too."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture()
def c5_file(tmp_path):
    p = tmp_path / "c5.edges"
    write_edge_list(cycle(5), p)
    return p


@pytest.fixture()
def k3_file(tmp_path):
    p = tmp_path / "k3.edges"
    write_edge_list(complete(3), p)
    return p


def test_hardcore_stats_c5(c5_file, tmp_path, capsys):
    out = tmp_path / "stats.json"
    code = main([
        "hardcore-stats", "--input", str(c5_file), "--lam", "1.0",
        "--fact-check", "--output", str(out),
    ])
    assert code == 0
    data = _strict_json(out.read_text())
    assert data["mode"] == "exact"
    assert abs(data["occupancy"][0] - 3 / 11) <= 1e-12
    assert abs(data["log_Z"] - math.log(11)) <= 1e-12
    assert data["fact_check"]["fact1_residual"] <= 1e-12
    assert set(data["neighbour_occupancy"]) == {"1"}


def test_hardcore_stats_tsv(c5_file, capsys):
    code = main(["hardcore-stats", "--input", str(c5_file), "--lam", "1.0",
                 "--format", "tsv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("vertex\t")
    assert len(lines) == 6


def test_hardcore_stats_sampled_mode(c5_file, tmp_path):
    out = tmp_path / "sampled.json"
    code = main([
        "hardcore-stats", "--input", str(c5_file), "--lam", "1.0",
        "--cutoff", "3", "--trials", "64", "--steps", "200",
        "--output", str(out),
    ])
    assert code == 0
    data = _strict_json(out.read_text())
    assert data["mode"] == "sampled"
    assert data["log_Z"] is None


def test_missing_file_is_io_error(tmp_path):
    code = main(["hardcore-stats", "--input", str(tmp_path / "nope.edges"),
                 "--lam", "1.0"])
    assert code == 1


def test_empty_file_is_io_error(tmp_path):
    p = tmp_path / "empty.edges"
    p.write_text("")
    assert main(["hardcore-stats", "--input", str(p), "--lam", "1.0"]) == 1


@pytest.mark.parametrize("argv, bad", [
    (["hardcore-stats", "--lam", "1"], "graph"),
    (["hardcore-stats", "--lam", "1", "--fact-check"], "graph"),
    (["frac-colour", "--epsilon", "2"], "graph"),
    (["semibip"], "graph"),
    (["dp-solve", "--ell", "3", "--certify"], "cover"),
    (["dp-solve", "--ell", "3", "--certify"], "graph"),
], ids=["hardcore-stats", "fact-check", "frac-colour", "semibip", "dp-solve-cover",
        "dp-solve-graph"])
def test_input_that_is_not_utf8_is_format_error(tmp_path, capsys, argv, bad):
    graph = tmp_path / "g.edges"
    write_edge_list(cycle(5), graph)
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"graph": "g.edges",
                                 "lists": {str(v): [1, 2, 3] for v in range(5)}}))
    (graph if bad == "graph" else cover).write_bytes(b"\xff\xfe 3 0\n")
    source = ["--cover", str(cover)] if argv[0] == "dp-solve" else ["--input", str(graph)]
    assert main([*argv, *source]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_triangle_fact_check_is_hypothesis_error(k3_file):
    code = main(["hardcore-stats", "--input", str(k3_file), "--lam", "1.0",
                 "--fact-check"])
    assert code == 2


@pytest.mark.parametrize("leaves", [22, 29])
def test_fact_check_on_a_star_at_the_default_cutoff(tmp_path, capsys, leaves):
    # the centre has 2^leaves subsets of neighbours; star(29) has n = 30,
    # the default cutoff
    p = tmp_path / "star.edges"
    write_edge_list(star(leaves), p)
    assert main(["hardcore-stats", "--input", str(p), "--lam", "1.0", "--fact-check"]) == 0
    data = _strict_json(capsys.readouterr().out)
    assert data["mode"] == "exact"
    assert data["fact_check"]["fact1_residual"] <= 1e-12
    assert data["fact_check"]["fact2_residual"] <= 1e-12


def test_fact_check_above_the_cutoff_fails_before_sampling(c5_file, monkeypatch, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled a graph that the fact check refuses")

    monkeypatch.setattr(hardcore, "glauber_sample", no_sampling)
    code = main(["hardcore-stats", "--input", str(c5_file), "--lam", "1.0", "--cutoff", "4",
                 "--trials", "32", "--fact-check"])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.err == (
        "error: graph has 5 vertices, above the exact-enumeration cutoff 4\n"
    )


def test_frac_colour_c5(c5_file, tmp_path):
    out = tmp_path / "col.json"
    slack = tmp_path / "slack.tsv"
    code = main([
        "frac-colour", "--input", str(c5_file), "--epsilon", "2.0",
        "--output", str(out), "--slack-tsv", str(slack),
    ])
    assert code == 0
    data = _strict_json(out.read_text())
    assert data["total"] > 0
    rows = slack.read_text().strip().splitlines()
    assert len(rows) == 6
    assert all(float(r.split("\t")[4]) > -1e-9 for r in rows[1:])


@pytest.mark.parametrize("eps", ["5e-324", "1e-323", "1e-310"])
def test_frac_colour_rejects_an_epsilon_too_small_for_floats(c5_file, capsys, eps):
    assert main(["frac-colour", "--input", str(c5_file), "--epsilon", eps]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "too small" in err and err.count("\n") == 1


def test_frac_colour_rejects_triangles(k3_file):
    assert main(["frac-colour", "--input", str(k3_file), "--epsilon", "2.0"]) == 2


def test_frac_colour_empty_graph(tmp_path, capsys):
    p = tmp_path / "empty0.edges"
    p.write_text("0 0\n")
    out = tmp_path / "col.json"
    code = main(["frac-colour", "--input", str(p), "--epsilon", "1.0",
                 "--output", str(out)])
    assert code == 0
    assert _strict_json(out.read_text()) == {"total": 0.0, "parts": []}
    # the empty graph takes the same path as any other: its slack table
    # is the header alone, and an epsilon out of range is refused
    slack = tmp_path / "slack.tsv"
    assert main(["frac-colour", "--input", str(p), "--epsilon", "1.0",
                 "--output", str(out), "--slack-tsv", str(slack)]) == 0
    assert slack.read_text() == "vertex\tdegree\tmeasure\tbound\tslack\n"
    capsys.readouterr()
    assert main(["frac-colour", "--input", str(p), "--epsilon", "99"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_frac_colour_cutoff_resource_error(c5_file, monkeypatch, capsys):
    monkeypatch.setenv("HCCHROMA_CUTOFF", "3")
    assert main(["frac-colour", "--input", str(c5_file), "--epsilon", "2.0"]) == 3
    assert capsys.readouterr().err == (
        "error: graph has 5 vertices, above the exact-enumeration cutoff 3\n"
    )
    monkeypatch.setenv("HCCHROMA_CUTOFF", "30")
    assert main(["frac-colour", "--input", str(c5_file), "--epsilon", "2.0"]) == 0


def test_frac_colour_above_the_set_budget_is_resource_error(tmp_path, capsys):
    # edgeless(19) is inside the default cutoff, but its 2^19 sets are
    # above the listing budget: refused before any set is listed
    p = tmp_path / "e19.edges"
    write_edge_list(edgeless(19), p)
    assert main(["frac-colour", "--input", str(p), "--epsilon", "2.0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: graph has 524288 independent sets, above the listing budget 262144\n"
    )


def test_edge_list_header_above_the_vertex_limit_is_resource_error(tmp_path, monkeypatch,
                                                                    capsys):
    # the 13-byte file asks for 10^9 vertices: refused on its header,
    # before any graph is built
    def build(n, edges):
        raise AssertionError(f"built a graph on {n} vertices")

    monkeypatch.setattr(Graph, "from_edges", staticmethod(build))
    p = tmp_path / "huge.edges"
    p.write_text("1000000000 0\n")
    assert p.stat().st_size == 13
    assert main(["hardcore-stats", "--lam", "1.0", "--input", str(p)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: edge list declares 1000000000 vertices, above the limit 524288\n"
    )


def test_dp_solve_list_cover(c5_file, tmp_path):
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({
        "graph": "c5.edges",
        "lists": {str(v): [1, 2, 3] for v in range(5)},
    }))
    out = tmp_path / "sol.json"
    code = main(["dp-solve", "--cover", str(cover), "--seed", "4",
                 "--output", str(out)])
    assert code == 0
    data = _strict_json(out.read_text())
    labels = {int(u): lab for u, lab in data["labels"].items()}
    g = cycle(5)
    for u, v in g.edges():
        assert labels[u] != labels[v]


def test_dp_solve_two_phase(c5_file, tmp_path):
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({
        "graph": "c5.edges",
        "lists": {str(v): [1, 2, 3] for v in range(5)},
    }))
    out = tmp_path / "tp.json"
    code = main(["dp-solve", "--cover", str(cover), "--two-phase", "--ell", "3",
                 "--rounds", "10", "--seed", "2", "--output", str(out)])
    assert code == 0
    data = _strict_json(out.read_text())
    assert data["choice"] is not None
    assert "two_phase" in data


def test_dp_solve_unsatisfiable_is_resource_error(tmp_path):
    write_edge_list(complete(2), tmp_path / "k2.edges")
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"graph": "k2.edges", "lists": {"0": [1], "1": [1]}}))
    code = main(["dp-solve", "--cover", str(cover), "--max-resamples", "10"])
    assert code == 3


@pytest.fixture()
def c5_cover(c5_file, tmp_path):
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({
        "graph": "c5.edges",
        "lists": {str(v): [1, 2, 3] for v in range(5)},
    }))
    return cover


def test_dp_solve_certify_needs_ell(c5_cover, capsys):
    assert main(["dp-solve", "--cover", str(c5_cover), "--certify"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--certify needs --ell" in err


@pytest.mark.parametrize("rounds", ["0", "-3"])
def test_dp_solve_rejects_rounds_below_one(c5_cover, rounds, capsys):
    assert main(["dp-solve", "--cover", str(c5_cover), "--two-phase", "--ell", "3",
                 "--rounds", rounds]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "rounds must be at least 1" in err


@pytest.mark.parametrize("flags, message", [
    (["--ell", "-1"], "ell must be at least 1"),
    (["--ell", "0", "--certify"], "ell must be at least 1"),
    (["--ell", "-1", "--two-phase"], "ell must be at least 1"),
    (["--max-resamples", "-5"], "max_resamples must be at least 0"),
    (["--ell", "3", "--two-phase", "--max-resamples", "-5"], "max_resamples must be at least 0"),
    (["--rounds", "-3"], "--rounds needs --two-phase"),
    (["--rounds", "3", "--ell", "3"], "--rounds needs --two-phase"),
], ids=["ell-negative", "ell-zero-certify", "ell-negative-two-phase", "resamples-negative",
        "resamples-negative-two-phase", "rounds-negative-alone", "rounds-without-two-phase"])
def test_dp_solve_rejects_bad_budgets_before_solving(c5_cover, flags, message, capsys):
    assert main(["dp-solve", "--cover", str(c5_cover), *flags]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err and err.count("\n") == 1


def test_dp_solve_zero_max_resamples_is_legal(tmp_path):
    write_edge_list(complete(2), tmp_path / "k2.edges")
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"graph": "k2.edges", "lists": {"0": [1], "1": [2]}}))
    assert main(["dp-solve", "--cover", str(cover), "--max-resamples", "0",
                 "--output", str(tmp_path / "out.json")]) == 0


def _write_dp_golden_covers(d):
    general = helpers.random_cover(80, 8.0, 20, 2, seed=0)
    write_edge_list(general.base, d / "g80.edges")
    dump_cover(general, d / "general.json", d / "g80.edges")
    g, lists, _, _ = helpers.random_list_instance(30, 3.0, 24, 400, 2)
    write_edge_list(g, d / "l30.edges")
    (d / "list.json").write_text(json.dumps(
        {"graph": "l30.edges", "lists": {str(v): lists[v] for v in range(g.n)}}))
    write_edge_list(cycle(5), d / "c5.edges")
    (d / "c5.json").write_text(json.dumps(
        {"graph": "c5.edges", "lists": {str(v): [1, 2, 3] for v in range(5)}}))
    write_edge_list(complete(2), d / "k2.edges")
    (d / "k2.json").write_text(json.dumps({"graph": "k2.edges", "lists": {"0": [1], "1": [1]}}))


# sha256 of dp-solve's output, recorded with the partial-state phase 1 that
# rebuilt the chosen set per draw.  general seed 2 colours 77 of 80 vertices
# in phase 1 and certifies the residual; c5 finishes uncertified; k2 fails
# both rounds and exits 3 after writing its diagnostics.
GOLDEN_DP_SOLVE = {
    ("general", "two-phase"): (
        ["--ell", "16", "--two-phase", "--rounds", "3", "--seed", "2"], 0,
        "f0574b4e570437bb1441d785485fe667dae4b7abf51462177f3abcad4e2533d0"),
    ("general", "certify"): (
        ["--ell", "16", "--certify", "--seed", "2"], 0,
        "93e796898fb68488549d4f5f80644fbf638b4cf8e70134d5866456da888fee9d"),
    ("general", "solve"): (
        ["--ell", "16", "--seed", "2"], 0,
        "7a63d73449ba2b273e3092e831cbdbd00d2565ba79ceb23934e59734fa5f700b"),
    ("list", "certify"): (
        ["--ell", "24", "--certify", "--seed", "1"], 0,
        "e3315e6ecb75ab28005ff4b813237031248147656f41c24e84126411cb098701"),
    ("list", "two-phase"): (
        ["--ell", "24", "--two-phase", "--certify", "--seed", "1"], 0,
        "ecf3c89ee5608daa76468b4e8f1ff37435e851cce15def94c10c89a613072049"),
    ("c5", "two-phase"): (
        ["--ell", "3", "--two-phase", "--rounds", "10", "--seed", "2"], 0,
        "3fb3aeb5634829d55d9e7d8ccbe06e9e37cd402c1ed59370655568de7ea476fc"),
    ("k2", "two-phase"): (
        ["--ell", "3", "--two-phase", "--rounds", "2", "--max-resamples", "20"], 3,
        "6a3d8a27ce6ac3f71e14059d59299fadd8b16f6f86591ce21714da87843d438e"),
}


@pytest.fixture(scope="module")
def dp_golden_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("dp-golden")
    _write_dp_golden_covers(d)
    return d


@pytest.mark.parametrize("name, mode", sorted(GOLDEN_DP_SOLVE))
def test_dp_solve_output_bytes_are_golden(dp_golden_dir, tmp_path, name, mode):
    flags, code, digest = GOLDEN_DP_SOLVE[name, mode]
    out = tmp_path / "out.json"
    assert main(["dp-solve", "--cover", str(dp_golden_dir / f"{name}.json"), *flags,
                 "--output", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_construct_level1(tmp_path):
    out = tmp_path / "report.json"
    graph_out = tmp_path / "inst.edges"
    lists_out = tmp_path / "lists.json"
    code = main([
        "construct", "--delta", "3", "--level", "1",
        "--out-graph", str(graph_out), "--out-lists", str(lists_out),
        "--output", str(out),
    ])
    assert code == 0
    report = _strict_json(out.read_text())
    assert report["not_colourable"] is True
    assert report["properties_ok"] is True
    assert report["n"] == 29
    lists = _strict_json(lists_out.read_text())
    assert len(lists["lists"]) == 29


# sha256 of the construct report, --out-graph and --out-lists files,
# recorded with the builder that assembled each level vertex by vertex and
# sorted both sides afterwards; any change to the bytes fails here.
GOLDEN_CONSTRUCT = {
    (3, 0): ("0b88e6a7cd20e5f2dd2ab1fd2d81e624e33ddce086b210ceb67b4c69788b5c66",
             "1cd2cff3e7a906da42813fa79f6d676010ff1b42c0473dd341efa7b72f2d7611",
             "23a6c82613009094e92e6d50f52570877cb661da09800bc373f0d8ffae19fd84"),
    (3, 1): ("a1ecde2128892926f2250875ca3183c67f2ba717cf6493929ea709f4e8f7bf3e",
             "ab57cf687ed235b252793702c764c18e14d8ff18ba3aa640be97ee6b8a8f0c16",
             "69162f074d3a0e0814372dbe4a300c434c6c70f1fb5fb2f61ab882e5d0c60db5"),
    (6, 1): ("2ae33cfd53e72a168e50b73f853c3118bbbd117f04b7eaeea5f760c74ffe4e4c",
             "5008f3103774f452ddc45eaf833466969b760ffc7220e798b32e79c47bf1e537",
             "d3749a76dbec7d98d883af988cef47ed351bd830fd147e90fd371ec889d2dc75"),
    (8, 1): ("5db126a485e32c2830686d95e618f34dc59ddb5021adc9be8e927eb99291f50c",
             "d334fd29cced743ce2527f034f46edfd9edd96867d3445d4821488f3da10b9f2",
             "c04b450df33aee6ecd3a4a0167673bb661008e1275b259713ce951dbfc60221f"),
}


@pytest.mark.parametrize("delta, level", sorted(GOLDEN_CONSTRUCT))
def test_construct_output_bytes_are_golden(tmp_path, delta, level):
    files = [tmp_path / name for name in ("report.json", "inst.edges", "lists.json")]
    assert main(["construct", "--delta", str(delta), "--level", str(level),
                 "--output", str(files[0]), "--out-graph", str(files[1]),
                 "--out-lists", str(files[2])]) == 0
    digests = tuple(hashlib.sha256(f.read_bytes()).hexdigest() for f in files)
    assert digests == GOLDEN_CONSTRUCT[delta, level]


def test_construct_delta8_level1(capsys):
    assert main(["construct", "--delta", "8", "--level", "1"]) == 0
    report = _strict_json(capsys.readouterr().out)
    assert report["n"] == 373 * 9 + 1
    assert report["not_colourable"] is True
    assert report["structural_cross_check"] is True


def test_python_dash_m_runs_the_cli():
    src = Path(hcchroma.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "hcchroma", "construct", "--delta", "3", "--level", "0"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = _strict_json(proc.stdout)
    assert report["not_colourable"] is True
    assert report["n"] == 4


def test_construct_delta2_is_precondition_error():
    assert main(["construct", "--delta", "2", "--level", "0"]) == 2


def test_construct_level2_is_resource_error():
    assert main(["construct", "--delta", "3", "--level", "2"]) == 3


def test_semibip_c5(c5_file, tmp_path):
    out = tmp_path / "semibip.json"
    code = main(["semibip", "--input", str(c5_file), "--lam", "1.0",
                 "--output", str(out)])
    assert code == 0
    data = _strict_json(out.read_text())
    assert data["A"] == [0, 2]
    assert abs(data["avg_degree"] - 1.6) <= 1e-12
    assert abs(data["expected_boundary_edges"] - 30 / 11) <= 1e-9


def test_semibip_auto_mode(tmp_path):
    p = tmp_path / "pet.edges"
    from hcchroma.graph import petersen

    write_edge_list(petersen(), p)
    out = tmp_path / "o.json"
    assert main(["semibip", "--input", str(p), "--output", str(out)]) == 0
    data = _strict_json(out.read_text())
    assert abs(data["lambda"] - 10 / (10 * math.log(3))) <= 1e-12


def test_semibip_exact_mode_reaches_sixty_vertices(tmp_path):
    # exact mode here relies on the kernel's component split: the
    # lowest-vertex search in helpers, which never splits, takes over 2 s
    p = tmp_path / "g60.edges"
    write_edge_list(helpers.triangle_free_base(60, 3.3, 1), p)
    out = tmp_path / "o.json"
    assert main(["semibip", "--input", str(p), "--cutoff", "60", "--output", str(out)]) == 0
    data = _strict_json(out.read_text())
    assert data["mode"] == "exact"
    assert data["boundary_edges"] == 84  # the lowest-vertex search's maximum


def test_semibip_triangle_is_hypothesis_error(k3_file):
    assert main(["semibip", "--input", str(k3_file), "--lam", "1.0"]) == 2


@pytest.mark.parametrize("a_side, code", [
    ((), 0),
    ((2,), 0),
    ((0, 2, 3), 2),  # the edge 2-3 is the last pair of A
    ((0, 2, 4), 2),  # the edge 0-4 joins the first and the last member
])
def test_semibip_rejects_a_dependent_part(c5_file, capsys, monkeypatch, a_side, code):
    # the command reads the part, the fugacity and the split table of its
    # exact search from semi_bipartite_extract's private form
    def extract(g, *args):
        b_side = tuple(v for v in range(g.n) if v not in a_side)
        return (a_side, b_side, 2.0 * sum(g.degree(v) for v in a_side) / g.n,
                constructions.auto_fugacity(g), hardcore._record(g))

    monkeypatch.setattr(constructions, "_semi_bipartite", extract)
    assert main(["semibip", "--input", str(c5_file)]) == code
    out, err = capsys.readouterr()
    if code:
        assert out == ""
        assert "not independent" in err
    else:
        assert _strict_json(out)["A"] == list(a_side)


# sha256 of frac-colour's output, and of one --slack-tsv table, recorded
# with an oracle that enumerated each round's live subgraph afresh (rtf14:
# with the oracle that filtered the full table of G every round, and a
# writer that spelled every endpoint); any change to the bytes fails here.
# random_triangle_free(16, 0.35, seed 0) and (14, 0.3, seed 3) have no
# isolated vertex.
GOLDEN_FRAC_COLOUR = {
    ("c5", "1"): ("e2dab427522902a8bb35b66a9fd7ab7a9bfa2716913deb9eebc408f935aba83b", None),
    ("c5", "2"): ("922a5d725b847ab74b4adee6f5a981be9d3dd89cd5970b7ec960ce2822a62b35", None),
    ("c5", "4"): ("fb6dce408a750e0c3d8a92d81972d9f44c9e9f5636731c702b1af2760b88082f", None),
    ("petersen", "1"): ("15714399fedca4171289c6be9fae8789bd285c9996edab5c089623a31ec5e378", None),
    ("petersen", "2"): ("770d2988b175689a67161d08bd21ba0596dd2c70e008040b433f03260145cc35", None),
    ("petersen", "4"): ("ae08b31fefba7777b4a1c980255712288fea1f656b2f8c3a166fca7ed296daa6", None),
    ("rtf14", "1"): ("354d458e81f0bd8906f494fa40719751e8f79bf3cac276b832e3b4b5374220e2", None),
    ("rtf14", "2"): (
        "aa8722004efda82ef88789e3938c4f5dbf90827bfdf40dcc74e6a01339bc06f1",
        "29bcdd58ecef53cd9cce0bc52b7f79d7a5664bafef0b6364452fd047c64bc412"),
    ("rtf14", "4"): ("04550d2cb7b19327b3a8a5985b3c8fa9d47009765c70e72fc07c7d95ad7761b3", None),
    ("rtf16", "1"): ("0775fb11e9e3dbc9f73261e1e5f756c02fec07693910fd955a995f629b79ec75", None),
    ("rtf16", "2"): ("7060574e0f4ab2a33c2f237158a3f5c27dddbcccfd9700513ea9ba5009a8b4db", None),
    ("rtf16", "4"): ("698df8e4f5f13f5f9c82dbfe23680133d190e0e40325a29e47dc262c6b5f8787", None),
}
GOLDEN_GRAPHS = {
    "c5": lambda: cycle(5),
    "petersen": petersen,
    "rtf14": lambda: random_triangle_free(14, 0.3, 3),
    "rtf16": lambda: random_triangle_free(16, 0.35, 0),
    # fact (b)'s count j of uncovered neighbours never takes some values
    # here: star(8)'s centre sees 0 or 8, GADGET's vertex 0 never exactly 1
    "gadget": lambda: Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (2, 4), (3, 5), (4, 5)]),
    "star8": lambda: star(8),
    # every vertex runs its fact (b) pass: only j = 0 and j = 3 occur
    "k33": lambda: complete_bipartite(3, 3),
}


@pytest.mark.parametrize("name, eps", sorted(GOLDEN_FRAC_COLOUR))
def test_frac_colour_output_bytes_are_golden(tmp_path, name, eps):
    digest, slack_digest = GOLDEN_FRAC_COLOUR[name, eps]
    p = tmp_path / f"{name}.edges"
    write_edge_list(GOLDEN_GRAPHS[name](), p)
    out = tmp_path / "col.json"
    slack = tmp_path / "slack.tsv"
    flags = ["--slack-tsv", str(slack)] if slack_digest else []
    assert main(["frac-colour", "--input", str(p), "--epsilon", eps,
                 "--output", str(out), *flags]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    if slack_digest:
        assert hashlib.sha256(slack.read_bytes()).hexdigest() == slack_digest


@pytest.mark.parametrize("g", [edgeless(0), cycle(5), random_triangle_free(16, 0.35, 0)],
                         ids=["empty", "c5", "rtf16"])
def test_frac_colour_prints_to_stdout_the_bytes_it_writes(tmp_path, capsys, g):
    p = tmp_path / "g.edges"
    write_edge_list(g, p)
    out = tmp_path / "col.json"
    argv = ["frac-colour", "--input", str(p), "--epsilon", "1"]
    assert main(argv + ["--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


# sha256 of sampled-mode output (four Glauber chains from seed 3), recorded
# with the bitmask sampler that drew each vertex by randrange(n); any change
# to the random stream or the chain fails here.  C5 is sampled by a cutoff
# below its order.
GOLDEN_SAMPLED = {
    ("c5", "hardcore-stats"): "3ef7ca47cf1816311c194bea44bd666ae64cc13156b7832ffc0b63fb57e4437f",
    ("c5", "semibip"): "a88a331de60aa877545cd8eaa5988392b7a96660a695da1829d64d84e79d64b4",
    ("rtf40", "hardcore-stats"): "bf77c434ec7790cc145c33bf0a77f18c79c283d7baf3b0dfbb0a519aa7724c3c",
    ("rtf40", "semibip"): "8095676eb96895bf633c968ddc0e48dcc2ce31c26781c75dcd3ccd827e973461",
}
SAMPLED_GRAPHS = {
    "c5": (lambda: cycle(5), "4"),
    "rtf40": (lambda: random_triangle_free(40, 0.15, 0), "10"),
}


@pytest.mark.parametrize("name, command", sorted(GOLDEN_SAMPLED))
def test_sampled_output_bytes_are_golden(tmp_path, name, command):
    make, cutoff = SAMPLED_GRAPHS[name]
    p = tmp_path / f"{name}.edges"
    write_edge_list(make(), p)
    out = tmp_path / "out.json"
    lam = ["--lam", "1.0"] if command == "hardcore-stats" else []
    assert main([command, "--input", str(p), *lam, "--cutoff", cutoff, "--trials", "4",
                 "--seed", "3", "--output", str(out)]) == 0
    assert _strict_json(out.read_text())["mode"] == "sampled"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SAMPLED[name, command]


# sha256 of exact-mode output, recorded with a kernel that recursed through
# per-form join and branch functions and ran fact (b) as one marked kernel
# per vertex; any change to the bytes fails here.  The graphs are those of
# GOLDEN_GRAPHS.  The cases at an integer fugacity (lam-1, lam-3, lam-63)
# were recorded with every polynomial packed in fields of n + 1 bits and
# evaluated at lambda afterwards; C5 at lambda 63 and 64 sits on each side
# of the rule that evaluates at x = lambda only below 2^(n + 1).  The gadget
# and star8 cases were recorded while fact (b)'s weights were evaluated at
# lambda's point and divided per count j, before the check read which
# counts occur off passes at lambda = 1.  The lam-1e300 cases (Z past every
# float: log Z from the exact integers) and lam-1e-300 cases (Z below 2:
# log1p(Z - 1)) were recorded while every quotient decoded its packed
# fields again, Z once per vertex.
GOLDEN_EXACT = {
    ("c5", "fact-check"): "6b53732898cd68dc6f49e5cc8e7ad98114a19bca29299bf9fdd83414078b0677",
    ("c5", "fact-check-lam-1"):
        "bacacd5f5a8b59409c3e499ac616519d877cfcdbb03ae940154030ccd14f1a67",
    ("c5", "fact-check-lam-3"):
        "9368d0a98395baed7ac2d05437778ef915ad219caa28c47f2ddab9827721e680",
    ("c5", "fact-check-lam-63"):
        "b0cbf14cae9fa28c12a8b27feeec42ebdfc9449bfe93a9e54e1e1e51b0cb241c",
    ("c5", "fact-check-lam-64"):
        "fbbc69a1f91140ea49153ff96bbc3673ea109b69bde47ab75f2d5996b9f55234",
    ("c5", "semibip"): "53082ec2687d422d5f82451b44c9077121e38588f1d7db0360be47e1129c534a",
    ("c5", "tsv"): "9ba6209eeb6b495db7828b5d6a784bbbb4daddf4f229cb4571fb692cb6363941",
    ("c5", "tsv-lam-1"): "2ecf080a7b376507af77047577abda4e9d4d1bc905ba990f737fa5e645b2d791",
    ("gadget", "fact-check"): "59ec9806c4b35f682d527c42abeb1c6a850f02d421ebfbbeebdb50f0231fc474",
    ("gadget", "fact-check-lam-1e-10"):
        "e2268b2fb2ba431c635dacd1d971ee3fee589b08b6c215195d16199e6e06beb9",
    ("k33", "fact-check"): "e53250f5e1341676905e110723470595cf27761acd89b20ffc80ee23595c6210",
    ("petersen", "fact-check"): "8630f530b60fa12d9311afbc6e9b075a8e69fded95e321f67d97b7a9eb7ef367",
    ("petersen", "fact-check-lam-1"):
        "d6a8620cf8508fdbde1a99b94967942ac83868b051419dc0786151071b0ad8e3",
    ("petersen", "fact-check-lam-3"):
        "050f575c93bedc0d12541e4ba02c16461b8aee896ee9d08df6a4bbf7732a9526",
    ("petersen", "fact-check-lam-1e-300"):
        "315de9d38f9e6e586b0b23a01330153c5bb5e4005bbd039e4a524e601ec5a756",
    ("petersen", "fact-check-lam-1e300"):
        "f34f2f3057adaad44878402577b8e4ccf6fa51cd8f7619c1c055bb44f89632f3",
    ("petersen", "semibip"): "be4442be4a1f245e3223b92765b36773e98bee38e2d8580f11f3c0f333d792dc",
    ("petersen", "tsv"): "4c47778f82808e66ad8d3a8a06b6b0ab91d92ae4cb1647902149fca7c65e796b",
    ("petersen", "tsv-lam-1"):
        "7225d55624fae87b79bc75a76398b1cf161852347d43714d59bd3f2648c2971b",
    ("rtf16", "fact-check"): "e52dc7abc696d1830cef70084de1195a3981a4a9cd0a9035d6a2d708c912b0a3",
    ("rtf16", "fact-check-lam-1"):
        "f4cf41de31eafb45b8cf6b40c9c0bd88a4720b77fbd0e34b75e83908d1f0620b",
    ("rtf16", "fact-check-lam-3"):
        "f8ae18e573effcea9d434cc8fbe39aed34db68d86928a922d13eb9bde19aea04",
    ("rtf16", "fact-check-lam-1e-300"):
        "671fcd6cdc11f43cce3f46c88b5496d13b586c086c9873caf202c6bb06576f9b",
    ("rtf16", "fact-check-lam-1e300"):
        "e6fd40639143b1576e526c561373638b6a13e8a7ae0f1010d9a97ef87a0b0d0f",
    ("rtf16", "semibip"): "0c68f3d4872fc9c441e38f5f65c31b5905341d363145229f08a17d6ea139eb25",
    ("rtf16", "tsv"): "b5e4c3ab947db3f70bf1fc0109d2e1783b3a263367393d569a67cb382595095a",
    ("rtf16", "tsv-lam-1"): "478abad1bd808902d90ee290ff2668eb4218be4d51a28d876c4f8efd24ebaf18",
    ("star8", "fact-check"): "1e9f78e55083294beff8399a4be83f458eea7ead5bf0eb693653c6f805564e0a",
    ("star8", "fact-check-lam-1e-10"):
        "dfd232f39e0f78d0f3b02cd1c7fb7bb1ca6962ebcc9ee480938f76ea0e3248ac",
}
EXACT_FLAGS = {
    "fact-check": ["hardcore-stats", "--lam", "0.7", "--fact-check"],
    "semibip": ["semibip"],
    "tsv": ["hardcore-stats", "--lam", "0.7", "--format", "tsv"],
    **{f"fact-check-lam-{lam}": ["hardcore-stats", "--lam", lam, "--fact-check"]
       for lam in ("1", "3", "63", "64", "1e-10", "1e-300", "1e300")},
    "tsv-lam-1": ["hardcore-stats", "--lam", "1", "--format", "tsv"],
}


@pytest.mark.parametrize("name, case", sorted(GOLDEN_EXACT))
def test_exact_output_bytes_are_golden(tmp_path, name, case):
    p = tmp_path / f"{name}.edges"
    write_edge_list(GOLDEN_GRAPHS[name](), p)
    out = tmp_path / "out"
    assert main([*EXACT_FLAGS[case], "--input", str(p), "--output", str(out)]) == 0
    if not case.startswith("tsv"):
        assert _strict_json(out.read_text())["mode"] == "exact"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_EXACT[name, case]


def test_fact_check_that_needs_no_pass_builds_no_counting_model(tmp_path, monkeypatch):
    # GADGET's degrees 1, 2 and 3 are all its counts j, so at --lam 0.7 the
    # model at lambda serves the statistics and the check, and no counting
    # model at lambda 1 is built beside it
    models = []
    real = hardcore._Exact

    def recording(*args):
        models.append(real(*args))
        return models[-1]

    monkeypatch.setattr(hardcore, "_Exact", recording)
    p = tmp_path / "gadget.edges"
    write_edge_list(GOLDEN_GRAPHS["gadget"](), p)
    out = tmp_path / "out"
    assert main(["hardcore-stats", "--lam", "0.7", "--fact-check", "--input", str(p),
                 "--output", str(out)]) == 0
    assert [m.x for m in models] == [2 << 6]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_EXACT["gadget", "fact-check"]


def _long_stats(g: Graph, occupancy, z) -> dict:
    """`hardcore-stats --lam 1` JSON of g from its exact occupancies and Z."""
    occ = [float(p) for p in occupancy]
    nbr = helpers.reference_neighbour_occupancy(g, occ)
    return {"lambda": 1.0, "log_Z": math.log(z), "mode": "exact", "occupancy": occ,
            "neighbour_occupancy": {"1": list(nbr[1])}}


def _long_path_stats(g: Graph) -> dict:
    return _long_stats(g, helpers.path_occupancy(g.n, 1), helpers.chain_partitions(g.n, 1)[-1])


def _long_path_semibip(g: Graph) -> dict:
    # every edge has one end in the even vertices, the lexicographically
    # first independent set of the largest degree sum
    occ = helpers.path_occupancy(g.n, 1)
    return {"lambda": 1.0, "A": list(range(0, g.n, 2)), "B": list(range(1, g.n, 2)),
            "boundary_edges": g.m, "avg_degree": 2.0 * g.m / g.n, "mode": "exact",
            "expected_boundary_edges": math.fsum(g.degree(v) * float(p)
                                                 for v, p in enumerate(occ))}


@pytest.mark.parametrize("argv, g, expected", [
    (["hardcore-stats", "--lam", "1.0"], edgeless(1500),
     lambda g: _long_stats(g, [Fraction(1, 2)] * g.n, 2 ** g.n)),
    (["hardcore-stats", "--lam", "1.0"], path(1100), _long_path_stats),
    (["hardcore-stats", "--lam", "1.0", "--fact-check"], path(1100),
     lambda g: {**_long_path_stats(g), "fact_check": {"fact1_residual": 0.0,
                                                      "fact2_residual": 0.0}}),
    (["semibip", "--lam", "1.0"], path(1100), _long_path_semibip),
    (["frac-colour", "--epsilon", "2.0"], edgeless(1500),
     "error: graph has at least 2^1500 independent sets, above the listing budget 262144\n"),
], ids=["stats-edgeless", "stats-path", "fact-check-path", "semibip-path",
        "frac-colour-edgeless"])
def test_exact_kernel_past_the_recursion_limit_is_resource_error(tmp_path, capsys, argv, g,
                                                                 expected):
    # named for the interpreter's recursion limit, which these graphs pass
    # and which stopped the exact kernel when it recursed (exit 3).  Its
    # walk keeps its own stack, so the statistics come out exact; only
    # frac-colour stops, at its listing budget, before it lists a set
    p = tmp_path / "big.edges"
    write_edge_list(g, p)
    out = tmp_path / "out.json"
    code = main(argv + ["--input", str(p), "--cutoff", "2000", "--output", str(out)])
    if isinstance(expected, str):
        assert (code, capsys.readouterr().err, out.exists()) == (3, expected, False)
    else:
        assert code == 0
        assert _strict_json(out.read_text()) == expected(g)


def test_exact_log_z_past_every_float_at_an_integer_fugacity(tmp_path):
    # Z = (1 + 2^20)^60 is about 2^1200: the weights are evaluated at
    # x = lambda, Z / 1 overflows, and log Z comes from the exact integer,
    # as it does from the packed weights
    g = edgeless(60)
    p = tmp_path / "e60.edges"
    write_edge_list(g, p)
    out = tmp_path / "out.json"
    assert main(["hardcore-stats", "--lam", "1048576", "--cutoff", "60", "--input", str(p),
                 "--output", str(out)]) == 0
    log_z = _strict_json(out.read_text())["log_Z"]
    assert math.isfinite(log_z) and log_z > 709
    assert log_z == helpers.packed_model(g, 1048576.0).stats().log_partition
    assert math.isclose(log_z, 60 * math.log1p(2.0 ** 20), rel_tol=1e-14)


def test_fact_check_reports_a_triangle_before_any_exact_work(tmp_path, capsys, monkeypatch):
    def record(g):
        raise AssertionError("the split table was recorded before the triangle check")

    monkeypatch.setattr(hardcore, "_record", record)
    g = Graph.from_edges(12, [*path(12).edges(), (0, 2)])
    p = tmp_path / "triangle.edges"
    write_edge_list(g, p)
    assert main(["hardcore-stats", "--lam", "1.0", "--fact-check", "--input", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: conditional_fact_check requires a triangle-free graph\n"


def test_byte_identical_reruns(c5_file, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["frac-colour", "--input", str(c5_file), "--epsilon", "2.0"]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    s1 = tmp_path / "s1.json"
    s2 = tmp_path / "s2.json"
    args = ["semibip", "--input", str(c5_file), "--lam", "1.0", "--seed", "7"]
    assert main(args + ["--output", str(s1)]) == 0
    assert main(args + ["--output", str(s2)]) == 0
    assert s1.read_bytes() == s2.read_bytes()


@pytest.mark.parametrize("lam", ["inf", "nan"])
def test_hardcore_stats_rejects_unrepresentable_fugacity(c5_file, lam, capsys):
    code = main(["hardcore-stats", "--input", str(c5_file), "--lam", lam])
    assert code == 2
    assert capsys.readouterr().out == ""


def test_hardcore_stats_large_finite_fugacity_is_valid_json(c5_file, capsys):
    code = main(["hardcore-stats", "--input", str(c5_file), "--lam", "1e100",
                 "--fact-check"])
    assert code == 0
    data = _strict_json(capsys.readouterr().out)
    assert abs(data["occupancy"][0] - 0.4) <= 1e-12


@pytest.mark.parametrize("argv", [["hardcore-stats", "--fact-check"], ["semibip"]],
                         ids=["hardcore-stats", "semibip"])
def test_fugacity_whose_partition_function_overflows_runs_exact(c5_file, argv, capsys):
    # Z ~ 5e600 on C5 exceeds every float; the statistics and log Z do not
    code = main(argv + ["--input", str(c5_file), "--lam", "1e300"])
    assert code == 0
    data = _strict_json(capsys.readouterr().out)
    assert data["mode"] == "exact"
    if argv[0] == "semibip":
        assert abs(data["expected_boundary_edges"] - 4.0) <= 1e-12
    else:
        assert abs(data["log_Z"] - 1383.16) <= 0.01
        assert all(abs(p - 0.4) <= 1e-12 for p in data["occupancy"])


@pytest.mark.parametrize("flag", ["--trials", "--steps"])
def test_hardcore_stats_sampled_rejects_zero_counts(c5_file, flag, capsys):
    code = main(["hardcore-stats", "--input", str(c5_file), "--lam", "1.0",
                 "--cutoff", "3", flag, "0"])
    assert code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("cutoff", ["3", "30"], ids=["sampled", "exact"])
@pytest.mark.parametrize("argv", [
    ["hardcore-stats", "--lam", "1", "--trials", "0"],
    ["hardcore-stats", "--lam", "1", "--steps", "-3"],
    ["semibip", "--trials", "0"],
], ids=["stats-trials", "stats-steps", "semibip-trials"])
def test_sampled_counts_are_checked_on_either_side_of_the_cutoff(c5_file, capsys, argv,
                                                                 cutoff):
    assert main([*argv, "--input", str(c5_file), "--cutoff", cutoff]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "at least 1" in err and err.count("\n") == 1


def _write_cover(tmp_path, body, graph=None):
    write_edge_list(graph if graph is not None else cycle(5), tmp_path / "g.edges")
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"graph": "g.edges", **body}))
    return cover


@pytest.mark.parametrize("body", [
    {"lists": [[1, 2, 3]] * 5},
    {"lists": {"0": [1, "a"]}},
    {"lists": {"0": [[1, 2]]}},
    {"lists": {"5": [1, 2, 3]}},
    {"owner": [0, 1, 2, 3, 4], "cross_edges": [[0, 1, 2]]},
    {"owner": [0, 1, 2, 3, 4], "cross_edges": [[0, "1"]]},
    {"owner": "01234", "cross_edges": []},
], ids=["lists-array", "mixed-labels", "array-label", "unknown-vertex",
        "three-element-edge", "string-node", "owner-string"])
def test_dp_solve_malformed_cover_is_format_error(tmp_path, body, capsys):
    cover = _write_cover(tmp_path, body)
    assert main(["dp-solve", "--cover", str(cover)]) == 1
    assert capsys.readouterr().out == ""


def test_dp_solve_cover_must_be_an_object(tmp_path):
    cover = tmp_path / "cover.json"
    cover.write_text('"graph"')
    assert main(["dp-solve", "--cover", str(cover)]) == 1


@pytest.mark.parametrize("text", [
    json.dumps({"graph": "g\u0000.edges", "lists": {}}),
    json.dumps({"graph": "g\ud800.edges", "lists": {}}),
    "[" * 200_000,
], ids=["null-in-graph-name", "surrogate-in-graph-name", "deep-nesting"])
def test_dp_solve_unreadable_cover_is_format_error(tmp_path, text, capsys):
    cover = tmp_path / "cover.json"
    cover.write_text(text)
    assert main(["dp-solve", "--cover", str(cover)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("labels", [
    '{"0": [NaN], "1": [1], "2": [Infinity]}',
    '{"0": [0], "1": [1, -Infinity], "2": [2]}',
    '{"0": [0], "1": [1], "2": [2, 1e400]}',
], ids=["nan", "minus-infinity", "overflowing-literal"])
def test_dp_solve_rejects_non_finite_labels(tmp_path, labels, capsys):
    # Python's json module reads these tokens, but writing them back as
    # labels would make the output invalid JSON.
    (tmp_path / "p3.edges").write_text("3 2\n0 1\n1 2\n")
    cover = tmp_path / "cover.json"
    cover.write_text('{"graph": "p3.edges", "lists": %s}' % labels)
    assert main(["dp-solve", "--cover", str(cover)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "NaN or an infinite number" in err and err.count("\n") == 1


def test_dp_solve_certify_builds_two_covers(dp_golden_dir, tmp_path, monkeypatch):
    """The loaded cover and one truncation, shared by certify and solve.
    Only a general-form cover, read from the file, goes through the
    checked constructor; the list encoding and the truncation skip it."""
    built = []
    post_init = dpcolor.Cover.__post_init__
    unchecked = dpcolor._unchecked_cover
    monkeypatch.setattr(dpcolor.Cover, "__post_init__",
                        lambda self: built.append("checked") or post_init(self))
    monkeypatch.setattr(dpcolor, "_unchecked_cover",
                        lambda *fields: built.append("unchecked") or unchecked(*fields))
    for name, ell, checked in [("general", "16", 1), ("list", "24", 0)]:
        built.clear()
        assert main(["dp-solve", "--cover", str(dp_golden_dir / f"{name}.json"),
                     "--ell", ell, "--certify", "--output", str(tmp_path / "out.json")]) == 0
        assert len(built) == 2, name
        assert built.count("checked") == checked, name


@pytest.mark.parametrize("name, mode", [
    key for key in sorted(GOLDEN_DP_SOLVE) if GOLDEN_DP_SOLVE[key][1] == 0])
def test_dp_solve_verifies_the_loaded_cover_once(dp_golden_dir, tmp_path, monkeypatch,
                                                 name, mode):
    """The solver checks its colouring against the loaded cover; the CLI
    does not check it again."""
    loaded = []
    checked = []
    load_cover = dpcolor.load_cover
    verify = dpcolor.verify_dp_colouring

    def loading(filename):
        cover, labels = load_cover(filename)
        loaded.append(cover)
        return cover, labels

    monkeypatch.setattr(dpcolor, "load_cover", loading)
    monkeypatch.setattr(dpcolor, "verify_dp_colouring",
                        lambda c, choice: checked.append(c) or verify(c, choice))
    flags, code, _ = GOLDEN_DP_SOLVE[name, mode]
    assert main(["dp-solve", "--cover", str(dp_golden_dir / f"{name}.json"), *flags,
                 "--output", str(tmp_path / "out.json")]) == code
    assert sum(c is loaded[0] for c in checked) == 1


def test_dp_solve_rejects_cross_edge_between_non_adjacent_lists(tmp_path, capsys):
    from hcchroma.graph import edgeless

    cover = _write_cover(
        tmp_path, {"owner": [0, 0, 1, 1, 2, 2], "cross_edges": [[0, 2]]}, edgeless(3)
    )
    assert main(["dp-solve", "--cover", str(cover)]) == 2
    assert "non-adjacent" in capsys.readouterr().err


@pytest.fixture()
def petersen_file(tmp_path):
    p = tmp_path / "pet.edges"
    write_edge_list(petersen(), p)
    return p


def test_hardcore_stats_tiny_fugacity_fact_check(petersen_file, capsys):
    code = main(["hardcore-stats", "--input", str(petersen_file), "--lam", "1e-300",
                 "--fact-check"])
    assert code == 0
    data = _strict_json(capsys.readouterr().out)
    assert data["fact_check"]["fact2_residual"] <= 1e-12


def test_hardcore_stats_tsv_fact_check_is_usage_error(c5_file, capsys):
    code = main(["hardcore-stats", "--input", str(c5_file), "--lam", "1.0",
                 "--format", "tsv", "--fact-check"])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("lam", ["abc", "inf", "nan"])
def test_semibip_rejects_bad_fugacity(tmp_path, lam, capsys):
    p = tmp_path / "empty0.edges"
    p.write_text("0 0\n")
    assert _exit_code(["semibip", "--input", str(p), "--lam", lam]) == 2
    assert capsys.readouterr().out == ""


def test_construct_size_cap_applies_at_level0():
    assert main(["construct", "--delta", "5", "--level", "0", "--size-cap", "4"]) == 3


@pytest.mark.parametrize("flags, message", [
    (["--budget", "-1"], "budget must be at least 0, got -1"),
    (["--size-cap", "-5"], "size_cap must be at least 0, got -5"),
    # a larger instance would write an edge list that no command reads back
    (["--size-cap", str(MAX_VERTICES + 1)],
     f"size_cap must be at most {MAX_VERTICES}, got {MAX_VERTICES + 1}"),
], ids=["budget-negative", "size-cap-negative", "size-cap-above-vertex-limit"])
def test_construct_rejects_negative_limits_before_building(flags, message, capsys,
                                                           monkeypatch):
    built = []
    monkeypatch.setattr(constructions.Graph, "from_edges",
                        staticmethod(lambda *args: built.append(args)))
    assert main(["construct", "--delta", "4", "--level", "1", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err and err.count("\n") == 1
    assert built == []


def test_construct_size_cap_may_be_the_vertex_limit(capsys):
    assert main(["construct", "--delta", "3", "--level", "1",
                 "--size-cap", str(MAX_VERTICES)]) == 0
    assert _strict_json(capsys.readouterr().out)["n"] == 29


@pytest.mark.parametrize("flags, message", [
    (["--budget", "0"], "exceeded budget 0"),
    (["--size-cap", "0"], "above the cap 0"),
], ids=["budget-zero", "size-cap-zero"])
def test_construct_zero_limits_are_legal(flags, message, capsys):
    assert main(["construct", "--delta", "4", "--level", "1", *flags]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["frac-colour", "--input", "g.edges", "--epsilon", "1", "--seed", "1"],
    ["frac-colour", "--input", "g.edges", "--epsilon", "1", "--threads", "2"],
    ["hardcore-stats", "--input", "g.edges", "--lam", "1", "--threads", "2"],
    ["hardcore-stats", "--input", "g.edges", "--lam", "1", "--max-distance", "2"],
    ["semibip", "--input", "g.edges", "--threads", "2"],
    ["dp-solve", "--cover", "c.json", "--threads", "2"],
    ["construct", "--delta", "3", "--level", "0", "--threads", "2"],
], ids=["frac-seed", "frac-threads", "stats-threads", "stats-max-distance",
        "semibip-threads", "dp-threads", "construct-threads"])
def test_removed_flags_are_usage_errors(argv):
    assert _exit_code(argv) == 2


def test_cutoff_is_resolved_only_by_subcommands_that_use_it(c5_file, tmp_path, monkeypatch):
    monkeypatch.setenv("HCCHROMA_CUTOFF", "abc")
    assert main(["hardcore-stats", "--input", str(c5_file), "--lam", "1"]) == 2
    assert main(["construct", "--delta", "3", "--level", "0",
                 "--output", str(tmp_path / "r.json")]) == 0
    monkeypatch.setenv("HCCHROMA_CUTOFF", "0")
    assert main(["semibip", "--input", str(c5_file)]) == 2


FUZZ_VALUES = ["0", "-1", "1", "3", "nan", "inf", "1e300", "1e-300", "abc"]

# (required flags, optional flags) per subcommand
FUZZ_FLAGS = {
    "hardcore-stats": (["--lam"], ["--cutoff", "--seed", "--trials", "--steps",
                                   "--fact-check", "--format"]),
    "frac-colour": (["--epsilon"], ["--cutoff"]),
    "semibip": ([], ["--lam", "--cutoff", "--seed", "--trials"]),
    "dp-solve": ([], ["--seed", "--ell", "--max-resamples", "--rounds", "--certify",
                      "--two-phase"]),
    "construct": (["--delta", "--level"], ["--size-cap", "--budget"]),
}
SWITCHES = {"--fact-check", "--certify", "--two-phase"}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for name, g in (("c5", cycle(5)), ("k3", complete(3)), ("empty0", edgeless(0)),
                    ("pet", petersen())):
        write_edge_list(g, d / f"{name}.edges")
    (d / "bad.edges").write_text("3 2\n0 1\n1 x\n")
    (d / "list.json").write_text(json.dumps(
        {"graph": "c5.edges", "lists": {str(v): [1, 2, 3] for v in range(5)}}))
    owner = [v for v in range(5) for _ in range(3)]
    cross = [[3 * u + i, 3 * ((u + 1) % 5) + i] for u in range(5) for i in range(3)]
    (d / "general.json").write_text(json.dumps(
        {"graph": "c5.edges", "owner": owner, "cross_edges": cross}))
    graphs = [str(d / f) for f in ("c5.edges", "k3.edges", "empty0.edges", "pet.edges",
                                   "bad.edges", "list.json")]
    covers = [str(d / f) for f in ("list.json", "general.json", "c5.edges")]
    return graphs, covers


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_fuzz(fuzz_files, data):
    command = data.draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    required, optional = FUZZ_FLAGS[command]
    argv = [command]
    graphs, covers = fuzz_files
    if command == "dp-solve":
        argv += ["--cover", data.draw(st.sampled_from(covers))]
    elif command != "construct":
        argv += ["--input", data.draw(st.sampled_from(graphs))]
    for flag in required + [f for f in optional if data.draw(st.booleans())]:
        if flag in SWITCHES:
            argv.append(flag)
        elif flag == "--format":
            argv += [flag, data.draw(st.sampled_from(["json", "tsv"]))]
        else:
            argv += [flag, data.draw(st.sampled_from(FUZZ_VALUES))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = _exit_code(argv)
    assert code in (0, 1, 2, 3), argv
    text = out.getvalue()
    if text and "tsv" not in argv:
        _strict_json(text)
