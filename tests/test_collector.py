"""Commands run with the cyclic garbage collector paused, and leave no cycles.

`cli.main` turns automatic collection off while a command runs, so a
reference cycle built by a command would stay in memory until collection
is back on.  These tests check that the exact kernels and the commands
build none, that the memos are freed by reference counting alone, and
that `main` restores the collector's state however the command ends.
"""

import gc
import json
import tracemalloc
import types

import pytest

from hcchroma import constructions, hardcore
from hcchroma.cli import main
from hcchroma.graph import complete, cycle, random_triangle_free, star, write_edge_list

import helpers


def _from_hcchroma(obj) -> bool:
    """True for a function defined in hcchroma or an instance of one of its classes."""
    if isinstance(obj, types.FunctionType):
        module = obj.__module__ or ""
    else:
        module = type(obj).__module__
    return module.split(".")[0] == "hcchroma"


def _hcchroma_garbage(argv) -> list[str]:
    """Run ``main(argv)`` with the collector off, then name every hcchroma
    function or instance that only a reference cycle kept alive."""
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(argv) == 0
        gc.collect()
        return sorted({
            getattr(obj, "__qualname__", type(obj).__qualname__)
            for obj in gc.garbage if _from_hcchroma(obj)
        })
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if collecting:
            gc.enable()


@pytest.fixture()
def inputs(tmp_path):
    """Input files: a 16-vertex triangle-free graph, a 1101-vertex star
    (past the interpreter's recursion limit for the recursive kernel, one
    level per leaf component), a general-form cover and a list-form
    cover."""
    graph = tmp_path / "g16.edges"
    write_edge_list(random_triangle_free(16, 0.3, 4), graph)
    write_edge_list(star(1100), tmp_path / "star1100.edges")
    cover = helpers.random_cover(40, 4.0, 16, 2, seed=1)
    write_edge_list(cover.base, tmp_path / "base.edges")
    helpers.dump_cover(cover, tmp_path / "cover.json", tmp_path / "base.edges")
    g, lists, _, _ = helpers.random_list_instance(30, 3.0, 24, 400, 2)
    write_edge_list(g, tmp_path / "list-base.edges")
    (tmp_path / "list-cover.json").write_text(json.dumps(
        {"graph": "list-base.edges", "lists": {str(v): lists[v] for v in range(g.n)}}))
    return {"graph": str(graph), "long_star": str(tmp_path / "star1100.edges"),
            "cover": str(tmp_path / "cover.json"),
            "list_cover": str(tmp_path / "list-cover.json"),
            "out": str(tmp_path / "out.json")}


COMMANDS = {
    "stats-exact-fact-check": ["hardcore-stats", "--input", "{graph}", "--lam", "1.0",
                               "--fact-check"],
    "stats-exact-long-star": ["hardcore-stats", "--input", "{long_star}", "--lam", "1.0",
                              "--cutoff", "2000"],
    "stats-sampled": ["hardcore-stats", "--input", "{graph}", "--lam", "1.0",
                      "--cutoff", "8", "--trials", "2", "--steps", "200"],
    "frac-colour": ["frac-colour", "--input", "{graph}", "--epsilon", "2.0"],
    "semibip-exact": ["semibip", "--input", "{graph}"],
    "dp-solve-certify": ["dp-solve", "--cover", "{cover}", "--ell", "16", "--certify"],
    "dp-solve-two-phase": ["dp-solve", "--cover", "{cover}", "--ell", "16", "--two-phase"],
    "dp-solve-list-certify": ["dp-solve", "--cover", "{list_cover}", "--ell", "24",
                              "--certify"],
    "dp-solve-list-two-phase": ["dp-solve", "--cover", "{list_cover}", "--ell", "24",
                                "--two-phase"],
    "construct": ["construct", "--delta", "4", "--level", "1"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_leaves_no_hcchroma_cycles(inputs, name):
    argv = [arg.format(**inputs) for arg in COMMANDS[name]] + ["--output", inputs["out"]]
    assert _hcchroma_garbage(argv) == []


@pytest.mark.parametrize("kernel", ["enumerate_stats", "enumerate_stats-long-star",
                                    "conditional_fact_check",
                                    "conditional_fact_check-lam-0.7",
                                    "semi_bipartite_extract", "independent_set_masks"])
def test_exact_kernel_memory_returns_to_baseline_without_the_collector(kernel):
    if kernel == "enumerate_stats":
        # one Z memo and no per-vertex query: at n=30 it peaks under 100 kB
        g = random_triangle_free(40, 0.085, 1)
        run = lambda: hardcore.enumerate_stats(g, 1.0, cutoff=g.n)
    elif kernel == "enumerate_stats-long-star":
        # the star of the stats-exact-long-star command: the walk's stack
        # of ints goes with the call, as the table does
        g = star(1100)
        run = lambda: hardcore.enumerate_stats(g, 1.0, cutoff=g.n)
    elif kernel.startswith("conditional_fact_check"):
        # the split table and its independent-set counts live for the
        # whole check, each vertex's fact-(b) values for one pass: at n=30
        # it peaks under 100 kB; the passes count at lambda 1 whatever
        # lambda is, so 0.7 builds the same counting model as 1
        g = random_triangle_free(40, 0.085, 1)
        lam = 0.7 if kernel.endswith("0.7") else 1.0
        run = lambda: hardcore.conditional_fact_check(g, lam, cutoff=g.n)
    elif kernel == "semi_bipartite_extract":
        g = random_triangle_free(40, 0.085, 1)
        run = lambda: constructions.semi_bipartite_extract(g, cutoff=g.n)
    else:
        g = random_triangle_free(18, 0.1, 1)
        run = lambda: hardcore.independent_set_masks(g)
    run()  # fills the graph's cached masks and any first-call state
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run()  # the result is dropped at once
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if collecting:
            gc.enable()
    assert peak - before > 100_000  # the memo, or the list of sets, was there
    assert after - before < 16_384


class _Boom(Exception):
    pass


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("case", ["ok", "missing-file", "triangle", "over-cutoff", "uncaught"])
def test_main_pauses_the_collector_and_restores_its_state(
        tmp_path, monkeypatch, case, collecting):
    c5 = tmp_path / "c5.edges"
    write_edge_list(cycle(5), c5)
    k3 = tmp_path / "k3.edges"
    write_edge_list(complete(3), k3)
    seen = []
    real = hardcore._Exact

    def recording(*args, **kwargs):
        seen.append(gc.isenabled())
        if case == "uncaught":
            raise _Boom
        return real(*args, **kwargs)

    monkeypatch.setattr(hardcore, "_Exact", recording)
    stats = ["hardcore-stats", "--lam", "1.0", "--output", str(tmp_path / "out.json")]
    argv, code = {
        "ok": (stats + ["--input", str(c5)], 0),
        "missing-file": (stats + ["--input", str(tmp_path / "absent.edges")], 1),
        "triangle": (["frac-colour", "--input", str(k3), "--epsilon", "2.0"], 2),
        "over-cutoff": (["frac-colour", "--input", str(c5), "--epsilon", "2.0",
                         "--cutoff", "4"], 3),
        "uncaught": (stats + ["--input", str(c5)], None),
    }[case]
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if code is None:
            with pytest.raises(_Boom):
                main(argv)
        else:
            assert main(argv) == code
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == ([False] if case in ("ok", "uncaught") else [])
