"""Command-line surface tying the library together.

Subcommands drive the hard-core statistics, the fractional-colouring
pipeline, the correspondence-colouring solver, the lower-bound
construction, and the semi-bipartite extractor.  Every artifact written is
re-validated by the matching library validator before a success exit;
dp-solve's colouring is verified against the loaded cover inside
`dpcolor.solve` or `dpcolor.two_phase_colour`, which raise InternalError
rather than return one that fails.

Exit codes: 0 success, 1 I/O or parse failure, 2 violated hypothesis or
precondition, 3 resource limit (cutoff, budget, vertex limit).  The environment
variable HCCHROMA_CUTOFF overrides the default exact-enumeration cutoff of
the subcommands that have --cutoff (hardcore-stats, frac-colour, semibip).

`main` runs the command with the cyclic garbage collector paused and
turns it back on afterwards if it was on.  A command builds tens of
thousands of small tuples, lists and dicts that live until it returns, and
CPython's collector would walk them again and again without finding a
cycle: on the 2000-vertex list cover of the perfbench dp-construct
workload that was about a seventh of `dp-solve --certify` (100 of 700 ms)
and of `--two-phase` (54 of 360 ms; CPython 3.11.7, 2 cores).  The pause
is safe because nothing a command runs builds a reference cycle: the
exact kernel is a loop that fills a plain dict from a stack of ints,
every exact quantity is a loop over that dict, and frac-colour's listing
recurses through a module-level function, not a closure that calls
itself, so reference counting frees them all.
tests/test_collector.py holds every subcommand to that.  Library calls
are unaffected.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys

from . import constructions, dpcolor, fractional, hardcore
from .errors import (
    FormatError,
    HcchromaError,
    HypothesisError,
    InputError,
    SizeError,
)
from .graph import format_edge_list, is_triangle_free, read_edge_list

EXIT_OK = 0
EXIT_IO = 1
EXIT_HYPOTHESIS = 2
EXIT_RESOURCE = 3


def _resolve_cutoff(value: int | None) -> int:
    """The exact-enumeration cutoff: --cutoff, else HCCHROMA_CUTOFF, else 30."""
    if value is None:
        env = os.environ.get("HCCHROMA_CUTOFF")
        try:
            value = hardcore.DEFAULT_CUTOFF if env is None else int(env)
        except ValueError as exc:
            raise InputError(f"bad HCCHROMA_CUTOFF value {env!r}") from exc
    if value < 1:
        raise InputError("cutoff must be at least 1")
    return value


def _open_output(output: str | None):
    """The --output file opened for writing, or stdout (left open) without it."""
    if output:
        return open(output, "w", encoding="utf-8")
    return contextlib.nullcontext(sys.stdout)


def _emit(text: str, output: str | None) -> None:
    with _open_output(output) as fh:
        fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cmd_hardcore_stats(args: argparse.Namespace) -> int:
    cutoff = _resolve_cutoff(args.cutoff)
    if args.fact_check and args.format == "tsv":
        raise InputError("--fact-check needs --format json; tsv has no place for the residuals")
    if args.trials < 1 or (args.steps is not None and args.steps < 1):
        # checked in either mode, though only sampled mode reads them
        raise InputError("sampled mode needs --trials and --steps of at least 1")
    g = read_edge_list(args.input)
    if args.fact_check:
        hardcore._check_cutoff(g, cutoff)  # the check is exact only: fail before any sampling
    lam = args.lam
    if g.n <= cutoff:
        hardcore._check_fugacity(lam)
        if args.fact_check:
            hardcore._check_triangle_free(g)  # before any exact work
        exact = hardcore._Exact(g, lam)  # one model serves the stats and the check
        payload = exact.stats().to_json_dict()
        payload["mode"] = "exact"
        if args.fact_check:
            report = exact.fact_check(lam)
            payload["fact_check"] = {"fact1_residual": report.fact1_residual,
                                     "fact2_residual": report.fact2_residual}
    else:
        steps = args.steps
        if steps is None:
            steps = hardcore.default_glauber_steps(g.n)
        counts = [0] * g.n
        for t in range(args.trials):
            for v in hardcore.glauber_sample(g, lam, steps, args.seed + t):
                counts[v] += 1
        occ = tuple(c / args.trials for c in counts)
        nbr = hardcore.neighbour_occupancy(g, occ)
        payload = hardcore.OccupancyStats(lam, None, occ, nbr).to_json_dict()
        payload.update(mode="sampled", trials=args.trials, steps=steps)
    if args.format == "tsv":
        rows = ["vertex\tdegree\toccupancy\tneighbour_occupancy_1"]
        nbr1 = payload["neighbour_occupancy"]["1"]
        for v in range(g.n):
            rows.append(f"{v}\t{g.degree(v)}\t{payload['occupancy'][v]!r}\t{nbr1[v]!r}")
        _emit("\n".join(rows) + "\n", args.output)
    else:
        _emit(_json_text(payload), args.output)
    return EXIT_OK


def cmd_frac_colour(args: argparse.Namespace) -> int:
    cutoff = _resolve_cutoff(args.cutoff)
    g = read_edge_list(args.input)
    if not is_triangle_free(g):
        raise HypothesisError("input graph has a triangle")
    hardcore._check_cutoff(g, cutoff)
    lam, weights = fractional.choose_local_weights(g, args.epsilon)
    # no name holds the oracle, so its rows go when the greedy returns
    colouring = fractional.greedy_fractional_colouring(
        g, weights, fractional.hard_core_oracle(lam)
    )
    bounds = [fractional.vertex_interval_bound(lam, g.degree(v)) for v in range(g.n)]
    report = fractional.validate_colouring(g, colouring, bounds)
    if not report.ok:
        raise HcchromaError(
            "colouring failed validation: " + "; ".join(report.failures[:3])
        )
    with _open_output(args.output) as fh:
        colouring.write_json(fh)
    if args.slack_tsv:
        rows = ["vertex\tdegree\tmeasure\tbound\tslack"]
        for v in range(g.n):
            rows.append(
                f"{v}\t{g.degree(v)}\t{report.vertex_measure[v]!r}"
                f"\t{bounds[v]!r}\t{report.vertex_slack[v]!r}"
            )
        with open(args.slack_tsv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
    return EXIT_OK


def cmd_dp_solve(args: argparse.Namespace) -> int:
    cover, labels = dpcolor.load_cover(args.cover)
    ell = args.ell
    payload: dict = {}
    if args.rounds is not None and not args.two_phase:
        raise InputError("--rounds needs --two-phase")
    if args.certify:
        if ell is None:
            raise InputError("--certify needs --ell")
        cert = dpcolor.lll_certify(cover, ell)
        payload["certificate"] = {
            "certified": cert.certified,
            "proof_slack": cert.proof_slack,
            "glll_slack": cert.glll_slack,
            "bad_events": cert.num_bad_events,
        }
    if args.two_phase:
        if ell is None:
            raise InputError("--two-phase needs --ell")
        result = dpcolor.two_phase_colour(
            cover,
            ell,
            rounds=10 if args.rounds is None else args.rounds,
            seed=args.seed,
            max_resamples=args.max_resamples,
        )
        payload["two_phase"] = {
            "rounds_used": result.rounds_used,
            "certified_finish": result.certified,
            "diagnostics": result.diagnostics,
        }
        if result.colouring is None:
            payload["choice"] = None
            _emit(_json_text(payload), args.output)
            raise SizeError("two-phase colouring failed within the round budget")
        choice = result.colouring
    else:
        choice = dpcolor.solve(
            cover, seed=args.seed, max_resamples=args.max_resamples, ell=ell
        )
    payload["choice"] = {str(u): node for u, node in sorted(choice.items())}
    if labels is not None:
        payload["labels"] = {str(u): labels[node] for u, node in sorted(choice.items())}
    _emit(_json_text(payload), args.output)
    return EXIT_OK


def cmd_construct(args: argparse.Namespace) -> int:
    constructions._check_limit("budget", args.budget)  # before the instance is built
    inst = constructions.necessary_construction(
        args.delta, args.level, size_cap=args.size_cap
    )
    not_col, structural = constructions.verify_construction(inst, budget=args.budget)
    if args.out_graph:
        with open(args.out_graph, "w", encoding="utf-8") as fh:
            fh.write(format_edge_list(inst.graph))
    if args.out_lists:
        data = {
            "delta": inst.delta,
            "level": inst.level,
            "special_vertex": inst.special_vertex,
            "a_side": list(inst.a_side),
            "b_side": list(inst.b_side),
            "lists": {
                str(v): sorted([i, lvl] for i, lvl in inst.lists[v])
                for v in range(inst.graph.n)
            },
        }
        with open(args.out_lists, "w", encoding="utf-8") as fh:
            fh.write(_json_text(data))
    report = {
        "delta": inst.delta,
        "level": inst.level,
        "n": inst.graph.n,
        "max_degree": max((inst.graph.degree(v) for v in range(inst.graph.n)), default=0),
        # necessary_construction raises InternalError on any property failure
        "properties_ok": True,
        "property_failures": [],
        "not_colourable": not_col,
        "structural_cross_check": structural,
    }
    _emit(_json_text(report), args.output)
    if not not_col:
        raise HcchromaError("construction failed its own verification")
    return EXIT_OK


def cmd_semibip(args: argparse.Namespace) -> int:
    cutoff = _resolve_cutoff(args.cutoff)
    g = read_edge_list(args.input)
    a_side, b_side, avg_degree, lam, table = constructions._semi_bipartite(
        g, args.lam, args.trials, args.seed, cutoff
    )
    a_set = set(a_side)
    for u in a_side:
        for v in g.adjacency[u]:
            if v in a_set:
                raise HcchromaError(f"extracted part is not independent: edge {u}-{v}")
    boundary = sum(g.degree(v) for v in a_side)
    if g.n and abs(avg_degree - 2.0 * boundary / g.n) > 1e-9:
        raise HcchromaError("reported average degree disagrees with recount")
    payload = {
        "lambda": lam,
        "A": list(a_side),
        "B": list(b_side),
        "boundary_edges": boundary,
        "avg_degree": avg_degree,
        "mode": "exact" if g.n <= cutoff else "sampled",
    }
    if table is not None:  # exact: the search's split table serves the expectation too
        stats = hardcore._Exact(g, lam, table).stats()
        f1, f2 = constructions._crossing_edges(g, stats)
        payload["expected_boundary_edges"] = f1
        if abs(f1 - f2) > 1e-9:
            raise HcchromaError("double-count forms of the expectation disagree")
    _emit(_json_text(payload), args.output)
    return EXIT_OK


def _fugacity_or_auto(text: str) -> float | str:
    return text if text == "auto" else float(text)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcchroma",
        description="Colouring toolkit for triangle-free graphs driven by "
        "hard-core-model statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="edge-list graph file")
        p.add_argument("--output", help="output file (default: stdout)")
        p.add_argument("--cutoff", type=int, default=None,
                       help="exact-enumeration cutoff (env HCCHROMA_CUTOFF, default 30)")

    p = sub.add_parser("hardcore-stats", help="occupancy statistics and identity checks")
    p.set_defaults(run=cmd_hardcore_stats)
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lam", type=float, required=True, help="fugacity")
    p.add_argument("--trials", type=int, default=32, help="chains in sampled mode")
    p.add_argument("--steps", type=int, default=None, help="steps per chain in sampled mode")
    p.add_argument("--fact-check", action="store_true",
                   help="also verify the triangle-free conditional identities")
    p.add_argument("--format", choices=["json", "tsv"], default="json")

    p = sub.add_parser("frac-colour", help="greedy fractional colouring pipeline")
    p.set_defaults(run=cmd_frac_colour)
    common(p)
    p.add_argument("--epsilon", type=float, required=True, help="slack parameter in (0, 4]")
    p.add_argument("--slack-tsv", help="write per-vertex bound slack table here")

    p = sub.add_parser("dp-solve", help="solve a correspondence-colouring cover")
    p.set_defaults(run=cmd_dp_solve)
    p.add_argument("--cover", required=True, help="cover JSON file")
    p.add_argument("--output", help="output file (default: stdout)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ell", type=int, default=None, help="truncate lists to this size, >= 1")
    p.add_argument("--max-resamples", type=int, default=dpcolor.DEFAULT_MAX_RESAMPLES)
    p.add_argument("--certify", action="store_true",
                   help="report the local-lemma certificate of the ell-truncated cover "
                        "(needs --ell; exit 2 if the finishing-blow hypothesis fails)")
    p.add_argument("--two-phase", action="store_true",
                   help="random partial colouring first, then the certified finisher")
    p.add_argument("--rounds", type=int, default=None,
                   help="restarts for --two-phase (needs it), at least 1; default 10")

    p = sub.add_parser("construct", help="build and verify the lower-bound instance")
    p.set_defaults(run=cmd_construct)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--size-cap", type=int, default=constructions.DEFAULT_SIZE_CAP)
    p.add_argument("--budget", type=int, default=constructions.DEFAULT_BUDGET)
    p.add_argument("--out-graph", help="write the instance graph here (edge list)")
    p.add_argument("--out-lists", help="write the list assignment here (JSON)")
    p.add_argument("--output", help="verification report (default: stdout)")

    p = sub.add_parser("semibip", help="semi-bipartite induced subgraph extraction")
    p.set_defaults(run=cmd_semibip)
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lam", type=_fugacity_or_auto, default="auto",
                   help="fugacity, or 'auto'")
    p.add_argument("--trials", type=int, default=32)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()  # see the module docstring
    try:
        return args.run(args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except HcchromaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    finally:
        if collecting:
            gc.enable()


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
