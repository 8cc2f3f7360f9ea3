"""Compare two sets of saved results, one row per workload and end-to-end metric.

The verdict uses the bound BENCHMARK.json fixes for the metric:

- ``worse``: the new median is worse than the base median by more than
  the bound (as a share of the base median);
- ``improved``: the new side wins at least nine tenths of the run pairs
  (in saved order), the medians differ by more than the base side's
  quartile spread, and there are at least MIN_PAIRS pairs;
- ``unresolved``: neither, but the new side would have improved with
  enough pairs, or the spread of either side exceeds the bound;
- ``unchanged``: none of the above.
"""

from __future__ import annotations

import json
import statistics

MIN_PAIRS = 10


def load(path: str) -> dict[str, list[dict]]:
    """Untraced results of a file written by ``run.py --save``, by workload."""
    out: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if not rec["trace"]:
                out.setdefault(rec["workload"], []).append(rec["result"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], new: list[float], bound: float, lower_is_better: bool) -> str:
    sign = 1.0 if lower_is_better else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    if sign * (nm - bm) > bound * abs(bm):
        return "worse"
    better = wins >= 0.9 * len(pairs) and sign * (bm - nm) > b3 - b1
    if better and len(pairs) >= MIN_PAIRS:
        return "improved"
    if better or (b3 - b1) > bound * abs(bm) or (n3 - n1) > bound * abs(nm):
        return "unresolved"
    return "unchanged"


def print_table(spec: dict, base_path: str, new_path: str) -> None:
    base, new = load(base_path), load(new_path)
    print(f"{'workload':14s} {'metric':20s} {'base q1/med/q3':>30s} {'new q1/med/q3':>30s}"
          f" {'new/base':>9s}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        if name not in base or name not in new:
            print(f"{name:14s} (missing on one side)")
            continue
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in base[name]]
            b = [r["metrics"][m["name"]]["value"] for r in new[name]]
            qa, qb = quartiles(a), quartiles(b)
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            print(f"{name:14s} {m['name'] + ' ' + m['unit']:20s} "
                  f"{'/'.join(f'{x:.4g}' for x in qa):>30s} {'/'.join(f'{x:.4g}' for x in qb):>30s}"
                  f" {ratio:9.3f}  {verdict(a, b, m['bound'], m['better'] == 'lower')}")
