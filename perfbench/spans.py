"""In-memory span tracing of calls into ``hcchroma`` layers.

Public functions are wrapped by rebinding module attributes from outside
the package, in the home module and in every sibling module that imported
the same function object by name (``fractional.induced_subgraph``,
``dpcolor.induced_subgraph``, ...).  Wrapping is best-effort: a function a
later version no longer has is listed in ``missing`` and its metrics read
0, so the run still completes.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple

PACKAGE = "hcchroma"
LAYERS = ("graph", "numerics", "hardcore", "fractional", "dpcolor", "constructions", "cli")
SUBCOMMANDS = ("frac-colour", "hardcore-stats", "semibip", "dp-solve", "construct")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    invocation: int


def _n_intervals(col) -> int:
    return sum(len(ivs) for ivs in col.parts.values())


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


# (layer, function, hook).  A hook sees (tracer, args, kwargs, result),
# may add counters and returns the result the caller receives.
def _count_sets(t, a, k, r):
    t.count("hardcore.independent_set_masks.sets", len(r))
    return r


def _count_steps(t, a, k, r):
    t.count("hardcore.glauber_sample.steps", _arg(a, k, 2, "steps"))
    return r


def _wrap_oracle(t, a, k, r):
    return t.wrap(r, "fractional.oracle")


def _count_greedy(t, a, k, r):
    t.count("fractional.rounds", len(r.taus))
    t.count("fractional.intervals", _n_intervals(r))
    return r


def _count_validated(t, a, k, r):
    t.count("fractional.validate_colouring.intervals", _n_intervals(_arg(a, k, 1, "col")))
    return r


def _count_bad_events(t, a, k, r):
    t.count("dpcolor.lll_certify.bad_events", r.num_bad_events)
    return r


def _count_two_phase(t, a, k, r):
    t.count("dpcolor.two_phase_colour.rounds_used", r.rounds_used)
    t.count("dpcolor.two_phase.certified", int(r.certified))
    return r


def _count_vertices(t, a, k, r):
    t.count("constructions.necessary_construction.vertices", r.graph.n)
    return r


TRACED = (
    ("graph", "read_edge_list", None),
    ("graph", "parse_edge_list", None),
    ("graph", "induced_subgraph", None),
    ("graph", "is_triangle_free", None),
    ("numerics", "lambert_w", None),
    ("hardcore", "independent_set_masks", _count_sets),
    ("hardcore", "exact_distribution", None),
    ("hardcore", "enumerate_stats", None),
    ("hardcore", "conditional_fact_check", None),
    ("hardcore", "glauber_sample", _count_steps),
    ("fractional", "choose_local_weights", None),
    ("fractional", "hard_core_oracle", _wrap_oracle),
    ("fractional", "greedy_fractional_colouring", _count_greedy),
    ("fractional", "vertex_interval_bound", None),
    ("fractional", "validate_colouring", _count_validated),
    ("dpcolor", "load_cover", None),
    ("dpcolor", "finishing_blow_hypothesis", None),
    ("dpcolor", "lll_certify", _count_bad_events),
    ("dpcolor", "solve", None),
    ("dpcolor", "two_phase_colour", _count_two_phase),
    ("dpcolor", "verify_dp_colouring", None),
    ("constructions", "necessary_construction", _count_vertices),
    ("constructions", "check_recursive_properties", None),
    ("constructions", "verify_not_colourable", None),
    ("constructions", "structural_not_colourable", None),
    ("constructions", "semi_bipartite_extract", None),
    ("constructions", "expected_crossing_edges", None),
)
COUNTERS = (
    "hardcore.independent_set_masks.sets",
    "hardcore.glauber_sample.steps",
    "fractional.rounds",
    "fractional.intervals",
    "fractional.validate_colouring.intervals",
    "dpcolor.lll_certify.bad_events",
    "dpcolor.two_phase_colour.rounds_used",
    "dpcolor.two_phase.certified",
    "constructions.necessary_construction.vertices",
)


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.invocation = 0
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: float) -> None:
        self.counters[(self.invocation, key)] += amount

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0,
                               self._stack[-1] if self._stack else -1, self.invocation))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx] = self.spans[idx]._replace(end=time.perf_counter())

    def wrap(self, fn: Callable, name: str, hook=None) -> Callable:
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            return hook(self, args, kwargs, result) if hook else result

        traced.__wrapped__ = fn
        return traced

    def instrument(self) -> None:
        """Wrap every TRACED function wherever the package binds it.  Call
        it again after a fresh import of the package."""
        self.uninstrument()
        self.missing = []
        modules = {name[len(PACKAGE) + 1:]: mod for name, mod in sys.modules.items()
                   if name.startswith(PACKAGE + ".")}
        for layer, func, hook in TRACED:
            original = getattr(modules.get(layer), func, None)
            if original is None:
                self.missing.append(f"{layer}.{func}")
                continue
            wrapper = self.wrap(original, f"{layer}.{func}", hook)
            for mod in modules.values():
                if getattr(mod, func, None) is original:
                    self._restore.append((mod, func, original))
                    setattr(mod, func, wrapper)

    def uninstrument(self) -> None:
        """Restore the functions the last `instrument` call wrapped."""
        for mod, func, original in reversed(self._restore):
            setattr(mod, func, original)
        self._restore.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for a, b in sorted((spans[c].start, spans[c].end) for c in children[i]):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append((s.end - s.start) - covered)
    return out


def layer_metrics(
    spans: list[Span], own: list[float], counters: dict[str, float], root_wall: float
) -> dict[str, float]:
    """Per-layer metrics of one pass, named ``<layer>.<function>.<stat>``.

    ``own`` holds the self time of each span, from `self_times` over the
    whole run (parent indices refer to the full span list).

    Every traced function yields ``.s`` (inclusive time), ``.self_s`` and
    ``.calls``, zero when it never ran; every layer yields ``.self_s``; the
    ``cli.<subcommand>`` root spans, opened by the harness around each
    ``cli.main`` call, yield ``.self_s``.  ``trace.self_sum_ratio`` is the
    share of ``root_wall`` that the self time of traced functions covers,
    i.e. all but the roots' own self time: work that moves out of the
    traced functions lowers it.
    """
    m: dict[str, float] = defaultdict(float)
    for layer, func, _ in TRACED:
        for stat in ("s", "self_s", "calls"):
            m[f"{layer}.{func}.{stat}"] = 0.0
    for stat in ("s", "self_s", "calls"):
        m[f"fractional.oracle.{stat}"] = 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.self_s"] = 0.0
    for key in COUNTERS:
        m[key] = counters.get(key, 0.0)
    for s, t in zip(spans, own):
        m[f"{s.name}.s"] += s.end - s.start
        m[f"{s.name}.self_s"] += t
        m[f"{s.name}.calls"] += 1
        m[f"{s.name.split('.')[0]}.self_s"] += t

    def rate(num: str, den: str) -> float:
        return m[num] / m[den] if m[den] > 0 else 0.0

    m["hardcore.independent_set_masks.sets_per_s"] = rate(
        "hardcore.independent_set_masks.sets", "hardcore.independent_set_masks.s")
    m["hardcore.glauber_sample.steps_per_s"] = rate(
        "hardcore.glauber_sample.steps", "hardcore.glauber_sample.s")
    m["fractional.validate_colouring.intervals_per_s"] = rate(
        "fractional.validate_colouring.intervals", "fractional.validate_colouring.s")
    m["dpcolor.two_phase.certified_ratio"] = rate(
        "dpcolor.two_phase.certified", "dpcolor.two_phase_colour.rounds_used")
    roots = {f"cli.{sub}" for sub in SUBCOMMANDS}
    named = sum(t for s, t in zip(spans, own) if s.name not in roots)
    m["trace.self_sum_ratio"] = named / root_wall if root_wall > 0 else 0.0
    return dict(m)
