"""Benchmark of the ``hcchroma`` command line, driven in-process.

    python3 perfbench/run.py --workload frac-exact --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --save results/a.jsonl
    python3 perfbench/run.py --compare results/a.jsonl results/b.jsonl

One process, one thread, one invocation in flight: each workload is a
closed loop over a fixed list of ``hcchroma.cli.main(argv)`` calls,
repeated in passes until ``--seconds`` is used up.  Every output is
checked by perfbench/checks.py.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which
holds the end-to-end metrics of BENCHMARK.json with ``--trace 0`` and the
per-layer ones with ``--trace 1``.  The package is imported from ``src/``
of the checkout holding this directory and from nowhere else.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import checks
import compare
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_REPEATS = 5
REFERENCE_SEED = 0
# End-to-end times are in reference seconds: each measured time is scaled
# by CALIBRATION_REF_S / calibration_sample() taken just before it, i.e. to
# a machine on which calibration_sample() reads 3.5 ms.  On the shared
# 2-core x86-64 host (CPython 3.11) the benchmark was tuned on, readings
# ranged from 2.2 ms (quiet) to 4.5 ms (contended).
CALIBRATION_REF_S = 0.0035
CHILD = os.path.join(HERE, "child.py")


class SetupError(Exception):
    """The benchmark cannot run here, e.g. the package is not in ``src/``."""


def load_spec() -> dict:
    try:
        with open(SPEC, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SetupError(f"cannot read {SPEC}: {exc}") from exc


def import_cli():
    """Import ``hcchroma.cli`` afresh from ``<checkout>/src``."""
    for name in [m for m in sys.modules if m == "hcchroma" or m.startswith("hcchroma.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import hcchroma.cli as cli
    except ImportError as exc:
        raise SetupError(f"cannot import hcchroma from {SRC}: {exc}") from exc
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SetupError(f"hcchroma was imported from {cli.__file__}, not from {SRC}")
    return cli


def calibration_kernel() -> int:
    """Fixed allocation-heavy pure-Python work (dicts, tuples, strings,
    sorting, JSON) that slows down with the machine the way the program
    does; it is timed beside every invocation."""
    d = {}
    for i in range(3000):
        d[(i * 7919) % 10007] = (i, i * 0.5, str(i))
    return len(json.dumps(sorted(d.items())[:300]))


def calibration_sample() -> float:
    """Best of four timings of calibration_kernel(), in seconds."""
    best = math.inf
    for _ in range(4):
        t0 = time.perf_counter()
        calibration_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


@dataclass
class Pass:
    times: dict[str, float] = field(default_factory=dict)      # measured seconds
    ref_times: dict[str, float] = field(default_factory=dict)  # reference seconds
    invocations: range = range(0)
    output_bytes: int = 0

    @property
    def wall(self) -> float:
        return sum(self.times.values())

    @property
    def ref_wall(self) -> float:
        return sum(self.ref_times.values())


class Harness:
    """Runs invocations, times them and checks their outputs.

    Every invocation gets a fresh import of ``hcchroma``, outside its timed
    region, as a real ``hcchroma`` process that runs one command would: no
    module-level state (a memo table, a cache) carries over from one
    invocation to the next.
    """

    def __init__(self) -> None:
        self.tracer: spans.Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self._verified: set[tuple[str, str]] = set()  # (label, sha256) already checked

    def call(self, inv: workloads.Invocation) -> tuple[float, float, bytes | None]:
        """Run one invocation; return its wall time in measured and in
        reference seconds, and its output (None on failure)."""
        cli = import_cli()
        tracer = self.tracer
        if tracer:
            tracer.instrument()
        gc.collect()
        calibration = calibration_sample()
        if tracer:
            tracer.invocation += 1
            idx = tracer.open("cli." + inv.subcommand)
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(inv.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            traceback.print_exc()
            rc = "exception"
        dt = time.perf_counter() - t0
        if tracer:
            tracer.close(idx)
        return dt, dt * CALIBRATION_REF_S / calibration, self._outcome(inv, rc)

    def call_in_child(self, inv: workloads.Invocation) -> float:
        """Run one invocation in a fresh interpreter; return its peak
        resident memory in MB."""
        proc = subprocess.run([sys.executable, "-I", CHILD, SRC, *inv.argv],
                              stdout=subprocess.PIPE, text=True, check=False)
        out = self._outcome(inv, proc.returncode)
        return int(proc.stdout.split()[-1]) / 1024.0 if out is not None else 0.0

    def _outcome(self, inv, rc) -> bytes | None:
        """Count the invocation; return its checked output, or None on failure."""
        self.attempted += 1
        out = self._checked_output(inv) if rc == 0 else None
        if out is None:
            self.failed += 1
            print(f"FAILED {inv.label}: exit {rc!r}", file=sys.stderr)
        return out

    def _checked_output(self, inv) -> bytes | None:
        with open(inv.output, "rb") as fh:
            data = fh.read()
        key = (inv.label, hashlib.sha256(data).hexdigest())
        if key not in self._verified:
            try:
                inv.check(json.loads(data))
            except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
                print(f"check of {inv.label} failed: {exc!r}", file=sys.stderr)
                return None
            self._verified.add(key)
        return data

    def run_pass(self, plan: workloads.Plan) -> Pass:
        first = self.tracer.invocation + 1 if self.tracer else 0
        p = Pass()
        for inv in plan.invocations:
            p.times[inv.label], p.ref_times[inv.label], out = self.call(inv)
            p.output_bytes += len(out or b"")
        if self.tracer:
            p.invocations = range(first, self.tracer.invocation + 1)
        return p

    def measure(self, plan: workloads.Plan, seconds: float) -> list[Pass]:
        """Whole passes until the next one would end after ``seconds``; at least one."""
        passes: list[Pass] = []
        start = time.perf_counter()
        while True:
            passes.append(self.run_pass(plan))
            elapsed = time.perf_counter() - start
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                return passes


def setup(workload: str, seed: int, scale: str):
    """Import, generate inputs and warm up, SETUP_REPEATS times; return the
    harness and plan of the last set-up and the median set-up time in
    reference seconds."""
    times = []
    for _ in range(SETUP_REPEATS):
        calibration = calibration_sample()
        t0 = time.perf_counter()
        harness = Harness()
        workdir = os.path.join(WORK, f"{workload}-{scale}")
        shutil.rmtree(workdir, ignore_errors=True)
        plan = workloads.build(workload, seed, workdir, scale)
        warm = next(inv for inv in plan.invocations if inv.label == plan.warmup)
        harness.call(warm)
        times.append((time.perf_counter() - t0) * CALIBRATION_REF_S / calibration)
    harness.attempted = harness.failed = 0
    return harness, plan, statistics.median(times)


def end_to_end(plan: workloads.Plan, passes: list[Pass], setup_s: float,
               rss: dict[str, float]) -> dict[str, float]:
    """End-to-end metrics, times in reference seconds."""
    per_inv = {inv.label: [p.ref_times[inv.label] for p in passes] for inv in plan.invocations}
    pooled = [t for ts in per_inv.values() for t in ts]
    return {
        "setup_s": setup_s,
        "wall_s": sum(statistics.median(ts) for ts in per_inv.values()),
        "instance_p50_s": statistics.median(pooled),
        "largest_instance_s": statistics.median(t for label in plan.largest for t in per_inv[label]),
        "peak_rss_mb": max(rss.values()),
    }


def output_digests(harness: Harness, workload: str) -> dict[str, str | None]:
    """sha256 of each output of the tiny reference plan at REFERENCE_SEED."""
    workdir = os.path.join(WORK, f"{workload}-reference")
    shutil.rmtree(workdir, ignore_errors=True)
    plan = workloads.build(workload, REFERENCE_SEED, workdir, "tiny")
    out = {}
    for inv in plan.invocations:
        _, _, data = harness.call(inv)
        out[inv.label] = hashlib.sha256(data).hexdigest() if data is not None else None
    return out


def per_layer(harness: Harness, plan: workloads.Plan, workload: str, seconds: float) -> dict[str, float]:
    """Untraced passes, then traced passes, each for half of ``seconds``."""
    plain = harness.measure(plan, seconds / 2)
    tracer = harness.tracer = spans.Tracer()  # each call instruments its fresh import
    try:
        traced = harness.measure(plan, seconds / 2)
    finally:
        tracer.uninstrument()
        harness.tracer = None
    if tracer.missing:
        print("not traced (absent): " + ", ".join(tracer.missing), file=sys.stderr)
    os.makedirs(WORK, exist_ok=True)
    tracer.dump(os.path.join(WORK, f"{workload}-spans.jsonl"))
    own = spans.self_times(tracer.spans)
    per_pass = []
    for p in traced:
        idx = [i for i, s in enumerate(tracer.spans) if s.invocation in p.invocations]
        counters: dict[str, float] = {}
        for (inv, key), v in tracer.counters.items():
            if inv in p.invocations:
                counters[key] = counters.get(key, 0.0) + v
        m = spans.layer_metrics([tracer.spans[i] for i in idx], [own[i] for i in idx], counters, p.wall)
        m["cli.output_bytes"] = p.output_bytes
        per_pass.append(m)
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["trace.overhead_ratio"] = (statistics.median(p.ref_wall for p in traced)
                                       / statistics.median(p.ref_wall for p in plain))
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            want = json.load(fh).get(workload, {})
    except FileNotFoundError:
        want = {}
    got = output_digests(harness, workload)
    metrics["cli.identical_output_ratio"] = (
        sum(got[k] is not None and got[k] == want.get(k) for k in got) / len(got))
    return metrics


def run_one(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    spec = load_spec()
    os.environ.pop("HCCHROMA_CUTOFF", None)  # the program runs at its default cutoff
    harness, plan, setup_s = setup(workload, seed, scale)
    if trace:
        metrics = per_layer(harness, plan, workload, seconds)
        wanted = spec["per_layer"]
    else:
        passes = harness.measure(plan, seconds)
        rss = {inv.label: harness.call_in_child(inv) for inv in plan.invocations}
        for inv in plan.invocations:
            measured = statistics.median(p.times[inv.label] for p in passes)
            ref = statistics.median(p.ref_times[inv.label] for p in passes)
            print(f"{inv.label:40s} median {measured:.4f} measured s, {ref:.4f} reference s,"
                  f" {len(passes)} passes, peak {rss[inv.label]:.1f} MB")
        metrics = end_to_end(plan, passes, setup_s, rss)
        wanted = spec["end_to_end"]
    metrics["failed_ratio"] = harness.failed / harness.attempted
    absent = [m["name"] for m in wanted if m["name"] not in metrics]
    if absent:
        raise SetupError(f"BENCHMARK.json names metrics this benchmark does not compute: {absent}")
    for name in sorted(metrics):
        print(f"{name:56s} {metrics[name]:.6g}")
    return {
        "correct": harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def run_all(args) -> None:
    """Each workload in its own fresh process; print a table and optionally save."""
    for w in load_spec()["workloads"]:
        name = w["name"]
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            raise SetupError(f"workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        rows = dict(result["metrics"])
        rows["failed_ratio"] = {"value": result["failed"] / result["attempted"], "unit": "ratio"}
        for k, v in rows.items():
            print(f"   {k:52s} {v['value']:12.6g} {v['unit']}")
        if args.save:
            with open(args.save, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"workload": name, "seed": args.seed, "trace": args.trace,
                                     "result": result}) + "\n")


def record_digests() -> None:
    """Rewrite digests.json from the current program's reference outputs."""
    os.environ.pop("HCCHROMA_CUTOFF", None)
    harness = Harness()
    table = {w: output_digests(harness, w) for w in workloads.PLANNERS}
    if harness.failed:
        raise SetupError("a reference invocation failed; digests not written")
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*workloads.PLANNERS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--save", help="with --workload all: append each result to this JSONL file")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                   help="compare two files written by --save")
    p.add_argument("--record-digests", action="store_true",
                   help="rewrite digests.json from the current program")
    args = p.parse_args(argv)
    try:
        if args.compare:
            compare.print_table(load_spec(), *args.compare)
        elif args.record_digests:
            record_digests()
        elif args.workload == "all":
            run_all(args)
        elif args.workload:
            print(json.dumps(run_one(args.workload, args.seed, args.seconds, bool(args.trace))))
        else:
            p.error("give --workload, --compare or --record-digests")
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
