"""The three workloads: a fixed list of ``hcchroma`` invocations per seed.

Each workload stresses different layers (see perfbench/README.md):

- ``frac-exact``: ``frac-colour`` in exact mode on a ladder of triangle-free
  graphs; hardcore enumeration, the fractional greedy loop and validator,
  and CLI JSON output.  No dpcolor code runs.
- ``stats``: ``hardcore-stats --fact-check`` and ``semibip`` in exact mode,
  and both again in sampled (Glauber) mode above the cutoff; hardcore
  without fractional.
- ``dp-construct``: ``dp-solve`` on large covers in general and list form,
  and ``construct --level 1``; dpcolor, constructions and file parsing, with
  no hardcore or fractional code.

``tiny`` scale keeps every subcommand and flag of ``full`` on small inputs;
the self-tests and the byte-identity reference use it.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks
import inputs

SCALES = {
    "frac-exact": {
        "full": {"rungs": (12, 14, 16, 18, 20), "epsilons": ("1", "2", "4")},
        "tiny": {"rungs": (8, 10), "epsilons": ("1", "4")},
    },
    "stats": {
        "full": {"exact": (22, 25, 27), "sampled": (200, 400), "trials": 32},
        "tiny": {"exact": (9, 11), "sampled": (40,), "trials": 4},
    },
    "dp-construct": {
        "full": {"general": 600, "list": 2000, "deltas": (6, 7, 8)},
        "tiny": {"general": 60, "list": 80, "deltas": (3, 4)},
    },
}
LAM = "1"                # fugacity of hardcore-stats
SAMPLED_AVG_DEGREE = 6.0
COVER_AVG_DEGREE = 4.0
ELL = 16                 # --ell of dp-solve; star degree <= ELL / 8 keeps the finishing-blow hypothesis
GENERAL_LIST_SIZE = 20   # longer than ELL, so two-phase residual lists can still certify
LIST_SIZE = 32
PALETTE = 160


@dataclass(frozen=True)
class Invocation:
    label: str
    argv: tuple[str, ...]  # ends with --output <file>
    check: Callable[[dict], None]

    @property
    def output(self) -> str:
        return self.argv[-1]

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Plan:
    invocations: tuple[Invocation, ...]
    largest: tuple[str, ...]  # labels of the largest invocations, pooled by largest_instance_s
    warmup: str   # label of the invocation set-up runs once


def build(workload: str, seed: int, workdir: str, scale: str = "full") -> Plan:
    """Write the workload's inputs for ``seed`` into ``workdir``; return its plan."""
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    return PLANNERS[workload](rng, seed, workdir, SCALES[workload][scale])


def _out(workdir: str, name: str) -> tuple[str, str]:
    return "--output", os.path.join(workdir, name + ".out.json")


def _frac_exact(rng, seed, workdir, cfg) -> Plan:
    invs = []
    for n in cfg["rungs"]:
        adj = inputs.ladder_graph(n, rng)
        path = os.path.join(workdir, f"ladder{n}.txt")
        inputs.write_edge_list(adj, path)
        for eps in cfg["epsilons"]:
            invs.append(Invocation(
                f"frac-colour n={n} eps={eps}",
                ("frac-colour", "--input", path, "--epsilon", eps, *_out(workdir, f"frac{n}e{eps}")),
                partial(checks.check_frac_colour, adj=adj, epsilon=float(eps)),
            ))
    # Every epsilon on the top rung is the same largest exact instance.
    largest = tuple(inv.label for inv in invs[-len(cfg["epsilons"]):])
    return Plan(tuple(invs), largest, invs[0].label)


def _stats(rng, seed, workdir, cfg) -> Plan:
    invs = []
    for n in cfg["exact"]:
        adj = inputs.ladder_graph(n, rng)
        path = os.path.join(workdir, f"exact{n}.txt")
        inputs.write_edge_list(adj, path)
        invs.append(Invocation(
            f"hardcore-stats exact n={n}",
            ("hardcore-stats", "--input", path, "--lam", LAM, "--fact-check",
             *_out(workdir, f"stats{n}")),
            partial(checks.check_hardcore_stats, adj=adj, fact_check=True, sampled=False),
        ))
        invs.append(Invocation(
            f"semibip exact n={n}",
            ("semibip", "--input", path, *_out(workdir, f"semibip{n}")),
            partial(checks.check_semibip, adj=adj, sampled=False),
        ))
    trials = str(cfg["trials"])
    for n in cfg["sampled"]:
        sets = inputs.sparse_triangle_free_graph(n, SAMPLED_AVG_DEGREE, rng)
        path = os.path.join(workdir, f"sampled{n}.txt")
        inputs.write_edge_list(sets, path)
        adj = [sum(1 << u for u in nb) for nb in sets]
        invs.append(Invocation(
            f"hardcore-stats sampled n={n}",
            ("hardcore-stats", "--input", path, "--lam", LAM, "--trials", trials,
             "--seed", str(seed), *_out(workdir, f"stats{n}")),
            partial(checks.check_hardcore_stats, adj=adj, fact_check=False, sampled=True),
        ))
        invs.append(Invocation(
            f"semibip sampled n={n}",
            ("semibip", "--input", path, "--trials", trials, "--seed", str(seed),
             *_out(workdir, f"semibip{n}")),
            partial(checks.check_semibip, adj=adj, sampled=True),
        ))
    largest = cfg["exact"][-1]
    return Plan(tuple(invs), (f"hardcore-stats exact n={largest}",), invs[0].label)


def _dp_construct(rng, seed, workdir, cfg) -> Plan:
    invs = []
    n = cfg["general"]
    base = inputs.sparse_triangle_free_graph(n, COVER_AVG_DEGREE, rng)
    graph = os.path.join(workdir, "general-base.txt")
    inputs.write_edge_list(base, graph)
    owner, cross = inputs.general_cover(base, GENERAL_LIST_SIZE, ELL // 8, rng)
    general = os.path.join(workdir, "general-cover.json")
    inputs.write_cover(general, graph, {"owner": owner, "cross_edges": cross})
    n = cfg["list"]
    base = inputs.sparse_triangle_free_graph(n, COVER_AVG_DEGREE, rng)
    graph = os.path.join(workdir, "list-base.txt")
    inputs.write_edge_list(base, graph)
    lists = inputs.list_cover(base, LIST_SIZE, PALETTE, ELL // 8, rng)
    listed = os.path.join(workdir, "list-cover.json")
    inputs.write_cover(listed, graph, {"lists": {str(v): lst for v, lst in enumerate(lists)}})
    for form, cover in (("general", general), ("list", listed)):
        common = ("dp-solve", "--cover", cover, "--ell", str(ELL), "--seed", str(seed))
        invs.append(Invocation(
            f"dp-solve {form} certify",
            (*common, "--certify", *_out(workdir, f"dp-{form}-certify")),
            partial(checks.check_dp_solve, cover_path=cover, certify=True, two_phase=False),
        ))
        invs.append(Invocation(
            f"dp-solve {form} two-phase",
            (*common, "--two-phase", *_out(workdir, f"dp-{form}-two-phase")),
            partial(checks.check_dp_solve, cover_path=cover, certify=False, two_phase=True),
        ))
    for delta in cfg["deltas"]:
        invs.append(Invocation(
            f"construct delta={delta}",
            ("construct", "--delta", str(delta), "--level", "1", *_out(workdir, f"construct{delta}")),
            partial(checks.check_construct, delta=delta, level=1),
        ))
    return Plan(tuple(invs), (invs[-1].label,), f"construct delta={cfg['deltas'][0]}")


PLANNERS = {"frac-exact": _frac_exact, "stats": _stats, "dp-construct": _dp_construct}
