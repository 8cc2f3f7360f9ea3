"""Command-line surface tying the library together.

Subcommands drive the hard-core statistics, the fractional-colouring
pipeline, the correspondence-colouring solver, the lower-bound
construction, and the semi-bipartite extractor.  Every artifact written is
re-validated by the matching library validator before a success exit.

Exit codes: 0 success, 1 I/O or parse failure, 2 violated hypothesis or
precondition, 3 resource limit (cutoff or budget).  The environment
variable HCCHROMA_CUTOFF overrides the default exact-enumeration cutoff.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

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

DEFAULT_CUTOFF = hardcore.DEFAULT_CUTOFF


@dataclass
class RunConfig:
    """One resolved command invocation."""

    command: str
    input: str | None = None
    lam: float | str | None = None
    epsilon: float | None = None
    seed: int = 0
    trials: int = 32
    cutoff: int = DEFAULT_CUTOFF
    output: str | None = None
    fmt: str = "json"
    threads: int = 1
    extra: dict = None

    def __post_init__(self):
        if self.cutoff < 1:
            raise InputError("cutoff must be at least 1")
        if self.extra is None:
            self.extra = {}


def _resolve_cutoff(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("HCCHROMA_CUTOFF")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise InputError(f"bad HCCHROMA_CUTOFF value {env!r}") from exc
    return DEFAULT_CUTOFF


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def cmd_hardcore_stats(cfg: RunConfig) -> int:
    g = read_edge_list(cfg.input)
    lam = float(cfg.lam)
    max_distance = cfg.extra.get("max_distance", 1)
    if g.n <= cfg.cutoff:
        stats = hardcore.enumerate_stats(g, lam, max_distance=max_distance, cutoff=cfg.cutoff)
        payload = stats.to_json_dict()
        payload["mode"] = "exact"
    else:
        steps = cfg.extra.get("steps")
        if steps is None:
            steps = max(10_000, 50 * g.n)
        if cfg.trials < 1 or steps < 1:
            raise InputError("sampled mode needs --trials and --steps of at least 1")
        counts = [0] * g.n
        for t in range(cfg.trials):
            for v in hardcore.glauber_sample(g, lam, steps, cfg.seed + t):
                counts[v] += 1
        occ = [c / cfg.trials for c in counts]
        payload = {
            "lambda": lam,
            "log_Z": None,
            "occupancy": occ,
            "neighbour_occupancy": {
                "1": [math.fsum(occ[u] for u in g.adjacency[v]) for v in range(g.n)]
            },
            "mode": "sampled",
            "trials": cfg.trials,
            "steps": steps,
        }
    if cfg.extra.get("fact_check"):
        report = hardcore.conditional_fact_check(g, lam, cutoff=cfg.cutoff)
        payload["fact_check"] = {
            "fact1_residual": report.fact1_residual,
            "fact2_residual": report.fact2_residual,
        }
    if cfg.fmt == "tsv":
        rows = ["vertex\tdegree\toccupancy\tneighbour_occupancy_1"]
        nbr1 = payload["neighbour_occupancy"]["1"]
        for v in range(g.n):
            rows.append(f"{v}\t{g.degree(v)}\t{payload['occupancy'][v]!r}\t{nbr1[v]!r}")
        _emit("\n".join(rows) + "\n", cfg.output)
    else:
        _emit(_json_text(payload), cfg.output)
    return EXIT_OK


def cmd_frac_colour(cfg: RunConfig) -> int:
    g = read_edge_list(cfg.input)
    if not is_triangle_free(g):
        raise HypothesisError("input graph has a triangle")
    if g.n > cfg.cutoff:
        raise SizeError(
            f"graph has {g.n} vertices, above the exact-oracle cutoff {cfg.cutoff}"
        )
    if g.n == 0:
        _emit(fractional.FractionalColouring({}, 0.0).to_json_text(), cfg.output)
        return EXIT_OK
    lam, weights = fractional.choose_local_weights(g, cfg.epsilon)
    oracle = fractional.hard_core_oracle(lam, cutoff=cfg.cutoff)
    colouring = fractional.greedy_fractional_colouring(g, weights, oracle)
    bounds = [fractional.vertex_interval_bound(lam, g.degree(v)) for v in range(g.n)]
    report = fractional.validate_colouring(g, colouring, bounds)
    if not report.ok:
        raise HcchromaError(
            "colouring failed validation: " + "; ".join(report.failures[:3])
        )
    _emit(colouring.to_json_text(), cfg.output)
    slack_path = cfg.extra.get("slack_tsv")
    if slack_path:
        rows = ["vertex\tdegree\tmeasure\tbound\tslack"]
        for v in range(g.n):
            rows.append(
                f"{v}\t{g.degree(v)}\t{report.vertex_measure[v]!r}"
                f"\t{bounds[v]!r}\t{report.vertex_slack[v]!r}"
            )
        with open(slack_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
    return EXIT_OK


def cmd_dp_solve(cfg: RunConfig) -> int:
    cover, labels = dpcolor.load_cover(cfg.input)
    ell = cfg.extra.get("ell")
    max_resamples = cfg.extra.get("max_resamples", dpcolor.DEFAULT_MAX_RESAMPLES)
    payload: dict = {}
    if ell is not None and cfg.extra.get("certify"):
        cert = dpcolor.lll_certify(cover, ell)
        payload["certificate"] = {
            "certified": cert.certified,
            "proof_slack": cert.proof_slack,
            "glll_slack": cert.glll_slack,
            "bad_events": cert.num_bad_events,
        }
    if cfg.extra.get("two_phase"):
        if ell is None:
            raise InputError("--two-phase needs --ell")
        result = dpcolor.two_phase_colour(
            cover.base,
            cover,
            ell,
            rounds=cfg.extra.get("rounds", 10),
            seed=cfg.seed,
            max_resamples=max_resamples,
        )
        payload["two_phase"] = {
            "rounds_used": result.rounds_used,
            "certified_finish": result.certified,
            "diagnostics": result.diagnostics,
        }
        if result.colouring is None:
            payload["choice"] = None
            _emit(_json_text(payload), cfg.output)
            raise SizeError("two-phase colouring failed within the round budget")
        choice = result.colouring
    else:
        choice = dpcolor.solve(cover, seed=cfg.seed, max_resamples=max_resamples, ell=ell)
    ok, msg = dpcolor.verify_dp_colouring(cover, choice)
    if not ok:
        raise HcchromaError(f"solver output failed verification: {msg}")
    payload["choice"] = {str(u): node for u, node in sorted(choice.items())}
    if labels is not None:
        payload["labels"] = {str(u): labels[node] for u, node in sorted(choice.items())}
    _emit(_json_text(payload), cfg.output)
    return EXIT_OK


def cmd_construct(cfg: RunConfig) -> int:
    delta = cfg.extra["delta"]
    level = cfg.extra["level"]
    size_cap = cfg.extra.get("size_cap", constructions.DEFAULT_SIZE_CAP)
    budget = cfg.extra.get("budget", constructions.DEFAULT_BUDGET)
    inst = constructions.necessary_construction(delta, level, size_cap=size_cap)
    properties = constructions.check_recursive_properties(inst)
    not_col = constructions.verify_not_colourable(inst, budget=budget)
    structural = constructions.structural_not_colourable(inst, budget=budget)
    out_graph = cfg.extra.get("out_graph")
    if out_graph:
        with open(out_graph, "w", encoding="utf-8") as fh:
            fh.write(format_edge_list(inst.graph))
    out_lists = cfg.extra.get("out_lists")
    if out_lists:
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
        with open(out_lists, "w", encoding="utf-8") as fh:
            fh.write(_json_text(data))
    report = {
        "delta": inst.delta,
        "level": inst.level,
        "n": inst.graph.n,
        "max_degree": max((inst.graph.degree(v) for v in range(inst.graph.n)), default=0),
        "properties_ok": properties.ok,
        "property_failures": list(properties.failures),
        "not_colourable": not_col,
        "structural_cross_check": structural,
    }
    _emit(_json_text(report), cfg.output)
    if not properties.ok or not not_col:
        raise HcchromaError("construction failed its own verification")
    return EXIT_OK


def cmd_semibip(cfg: RunConfig) -> int:
    g = read_edge_list(cfg.input)
    lam = cfg.lam if cfg.lam == "auto" else float(cfg.lam)
    a_side, b_side, avg_degree = constructions.semi_bipartite_extract(
        g, lam=lam, trials=cfg.trials, seed=cfg.seed, cutoff=cfg.cutoff,
        threads=cfg.threads,
    )
    a_set = set(a_side)
    for i, u in enumerate(a_side):
        for v in a_side[i + 1:]:
            if v in g.adjacency[u]:
                raise HcchromaError(f"extracted part is not independent: edge {u}-{v}")
    boundary = sum(g.degree(v) for v in a_side)
    if g.n and abs(avg_degree - 2.0 * boundary / g.n) > 1e-9:
        raise HcchromaError("reported average degree disagrees with recount")
    payload = {
        "lambda": constructions.auto_fugacity(g) if lam == "auto" else lam,
        "A": list(a_side),
        "B": list(b_side),
        "boundary_edges": boundary,
        "avg_degree": avg_degree,
        "mode": "exact" if g.n <= cfg.cutoff else "sampled",
    }
    if g.n <= cfg.cutoff and g.n > 0:
        f1, f2 = constructions.expected_crossing_edges(g, payload["lambda"], cutoff=cfg.cutoff)
        payload["expected_boundary_edges"] = f1
        if abs(f1 - f2) > 1e-9:
            raise HcchromaError("double-count forms of the expectation disagree")
    _emit(_json_text(payload), cfg.output)
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcchroma",
        description="Colouring toolkit for triangle-free graphs driven by "
        "hard-core-model statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="edge-list graph file")
        p.add_argument("--output", help="output file (default: stdout)")
        p.add_argument("--cutoff", type=int, default=None,
                       help="exact-enumeration cutoff (env HCCHROMA_CUTOFF, default 30)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads; results are identical for any value")

    p = sub.add_parser("hardcore-stats", help="occupancy statistics and identity checks")
    common(p)
    p.add_argument("--lam", type=float, required=True, help="fugacity")
    p.add_argument("--max-distance", type=int, default=1)
    p.add_argument("--trials", type=int, default=32, help="chains in sampled mode")
    p.add_argument("--steps", type=int, default=None, help="steps per chain in sampled mode")
    p.add_argument("--fact-check", action="store_true",
                   help="also verify the triangle-free conditional identities")
    p.add_argument("--format", choices=["json", "tsv"], default="json")

    p = sub.add_parser("frac-colour", help="greedy fractional colouring pipeline")
    common(p)
    p.add_argument("--epsilon", type=float, required=True, help="slack parameter in (0, 4]")
    p.add_argument("--slack-tsv", help="write per-vertex bound slack table here")

    p = sub.add_parser("dp-solve", help="solve a correspondence-colouring cover")
    p.add_argument("--cover", required=True, help="cover JSON file")
    p.add_argument("--output", help="output file (default: stdout)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ell", type=int, default=None, help="truncate lists to this size")
    p.add_argument("--max-resamples", type=int, default=dpcolor.DEFAULT_MAX_RESAMPLES)
    p.add_argument("--certify", action="store_true",
                   help="require a local-lemma certificate before solving")
    p.add_argument("--two-phase", action="store_true",
                   help="random partial colouring first, then the certified finisher")
    p.add_argument("--rounds", type=int, default=10,
                   help="restarts for --two-phase")
    p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("construct", help="build and verify the lower-bound instance")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--size-cap", type=int, default=constructions.DEFAULT_SIZE_CAP)
    p.add_argument("--budget", type=int, default=constructions.DEFAULT_BUDGET)
    p.add_argument("--out-graph", help="write the instance graph here (edge list)")
    p.add_argument("--out-lists", help="write the list assignment here (JSON)")
    p.add_argument("--output", help="verification report (default: stdout)")
    p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("semibip", help="semi-bipartite induced subgraph extraction")
    common(p)
    p.add_argument("--lam", default="auto", help="fugacity, or 'auto'")
    p.add_argument("--trials", type=int, default=32)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    extra = {}
    if args.command == "hardcore-stats":
        extra = {
            "max_distance": args.max_distance,
            "fact_check": args.fact_check,
            "steps": args.steps,
        }
    elif args.command == "frac-colour":
        extra = {"slack_tsv": args.slack_tsv}
    elif args.command == "dp-solve":
        extra = {
            "ell": args.ell,
            "max_resamples": args.max_resamples,
            "certify": args.certify,
            "two_phase": args.two_phase,
            "rounds": args.rounds,
        }
    elif args.command == "construct":
        extra = {
            "delta": args.delta,
            "level": args.level,
            "size_cap": args.size_cap,
            "budget": args.budget,
            "out_graph": args.out_graph,
            "out_lists": args.out_lists,
        }
    return RunConfig(
        command=args.command,
        input=getattr(args, "input", None) or getattr(args, "cover", None),
        lam=getattr(args, "lam", None),
        epsilon=getattr(args, "epsilon", None),
        seed=getattr(args, "seed", 0),
        trials=getattr(args, "trials", 32),
        cutoff=_resolve_cutoff(getattr(args, "cutoff", None)),
        output=getattr(args, "output", None),
        fmt=getattr(args, "format", "json"),
        threads=getattr(args, "threads", 1),
        extra=extra,
    )


_DISPATCH = {
    "hardcore-stats": cmd_hardcore_stats,
    "frac-colour": cmd_frac_colour,
    "dp-solve": cmd_dp_solve,
    "construct": cmd_construct,
    "semibip": cmd_semibip,
}


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _DISPATCH[cfg.command](cfg)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except HcchromaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
