#!/usr/bin/env python3
"""Benchmark for twowalk: three frozen workloads, run single-threaded in a
closed loop, every answer checked.

    python3 perfbench/run.py --workload screen --seed 1 --seconds 30 --trace 0

``--workload``  screen | hard | duplication (see BENCHMARK.json for why each)
``--seed``      orders the frozen suite's inputs (and on duplication relabels
                the squares given to ``permutation_similar``)
``--seconds``   how long to keep running whole passes over the suite
``--trace 1``   report the per-layer metrics instead of the end-to-end ones
``--suite-seed`` which frozen suite to read: 1 (default) or 2, the unseen one

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong verdict,
an unverified witness or a short isomorphism-class count prints
``"correct": false`` and exits 1; a missing source tree exits 2 without a
result.  A search that hits the suite's node cap is an accepted outcome
(an abort is never a verdict); ``failed`` counts such aborts and the
calls that raised ``BudgetExhausted``, as ``failed_frac`` does.
``attempted`` and ``failed`` count the calls of one pass: every pass makes
the same calls with the same outcomes (checked), so a faster program,
which fits more passes into the run, does not show more failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

from check import WrongAnswer
from suite import ROOT, SRC, import_program, load_suite
from workloads import WORKLOADS, NoTracer, Tracer

SETUP_SPAWNS = 25

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "calls_per_s": "1/s",
    "call_us_p50": "us",
    "call_us_p99": "us",
    "max_n_realized": "vertices",
    "witnesses_per_s": "1/s",
}

PER_LAYER_UNITS = {
    "formats.parse_us": "us",
    "analysis.battery_us": "us",
    "analysis.report_us": "us",
    "analysis.rejected_frac": "frac",
    "kernel.nodes": "count",
    "kernel.nodes_per_s": "1/s",
    "kernel.first_witness_ms_p50": "ms",
    "kernel.exhaust_ms_p50": "ms",
    "realize.verify_us": "us",
    "iso.calls": "count",
    "iso.busy_frac": "frac",
    "construct.busy_frac": "frac",
    "failed_frac": "frac",
    "trace.overhead_frac": "frac",
}


def import_seconds() -> float:
    """Wall time of one fresh interpreter running ``import twowalk``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import twowalk"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - t0


def provenance(tw, args, node_cap: int) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = res.stdout.strip() or sha
    return {
        "git_sha": sha,
        "backend": tw.search_backend(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "node_cap": node_cap,
        "workload": args.workload,
        "seed": args.seed,
        "suite_seed": args.suite_seed,
        "loadavg": os.getloadavg(),
    }


def run_passes(wl, tracer, seconds: float, setups: list | None = None) -> list:
    """Whole passes, at least one, until ``seconds`` of real time have gone.
    With ``setups``, times ``SETUP_SPAWNS`` fresh imports into it, spread
    evenly between the passes so that their median does not hang on how
    fast the machine was in one short stretch of the run."""
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(wl.run_pass(tracer))
        if setups is not None:
            due = SETUP_SPAWNS * min(1.0, (time.monotonic() - start) / seconds)
            while len(setups) < due:
                setups.append(import_seconds())
    return passes


def max_n_realized(ladder) -> int:
    """Largest n such that every ladder instance of size <= n realized."""
    wall = min((n for n, ok in ladder if not ok), default=None)
    return max((n for n, ok in ladder if ok and (wall is None or n < wall)), default=0)


def end_to_end(passes, setup_s: float) -> dict:
    walls = [p.wall for p in passes]
    wall = statistics.median(walls)
    lat = [t for p in passes for t in p.latencies]
    first = passes[0]
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "calls_per_s": len(first.latencies) / wall,
        "call_us_p50": statistics.median(lat) * 1e6,
        "call_us_p99": statistics.quantiles(lat, n=100)[98] * 1e6,
        "max_n_realized": max_n_realized(first.ladder),
        "witnesses_per_s": first.witnesses / wall,
    }


def per_layer(plain, traced, tracer: Tracer, status) -> dict:
    def median_of(name, scale):
        xs = tracer.durations(name)
        return statistics.median(xs) * scale if xs else 0.0

    runs = tracer.kernel_runs
    traced_wall = sum(p.wall for p in traced)
    first_witness = [t for t, _, _, limit, found in runs if limit == 1 and found]
    exhausted = [t for t, _, st, _, _ in runs if st == status.EXHAUSTED]
    calls = sum(len(p.latencies) for p in traced)
    return {
        "formats.parse_us": median_of("formats.parse", 1e6),
        "analysis.battery_us": median_of("analysis.battery", 1e6),
        "analysis.report_us": median_of("analysis.report", 1e6),
        "analysis.rejected_frac": tracer.battery_rejects / tracer.replays,
        "kernel.nodes": traced[0].nodes,
        "kernel.nodes_per_s": sum(r[1] for r in runs) / sum(r[0] for r in runs),
        "kernel.first_witness_ms_p50": statistics.median(first_witness) * 1e3 if first_witness else 0.0,
        "kernel.exhaust_ms_p50": statistics.median(exhausted) * 1e3 if exhausted else 0.0,
        "realize.verify_us": median_of("realize.verify", 1e6),
        "iso.calls": len(tracer.durations("iso")) / len(traced),
        "iso.busy_frac": sum(tracer.durations("iso")) / traced_wall,
        "construct.busy_frac": sum(tracer.durations("construct")) / traced_wall,
        "failed_frac": sum(p.aborted + p.raised for p in traced) / calls,
        "trace.overhead_frac": statistics.median(p.wall for p in traced)
        / statistics.median(p.wall for p in plain) - 1,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="twowalk benchmark")
    ap.add_argument("--workload", choices=list(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--suite-seed", type=int, default=1)
    args = ap.parse_args()

    try:
        tw = import_program()
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    suite = load_suite(args.workload, args.suite_seed)
    print("provenance " + json.dumps(provenance(tw, args, suite["node_cap"])), flush=True)

    wl = WORKLOADS[args.workload](tw, suite, random.Random(args.seed))
    passes = []
    try:
        if args.trace:
            plain = run_passes(wl, NoTracer(), args.seconds / 2)
            tracer = Tracer()
            traced = run_passes(wl, tracer, args.seconds / 2)
            passes = plain + traced
            metrics, units = per_layer(plain, traced, tracer, wl.pure), PER_LAYER_UNITS
        else:
            import_seconds()  # untimed: fills the bytecode cache
            setups = []
            passes = run_passes(wl, NoTracer(), args.seconds, setups)
            setup_s = statistics.median(setups)
            metrics, units = end_to_end(passes, setup_s), END_TO_END_UNITS
        if any(p.outcome() != passes[0].outcome() for p in passes):
            raise WrongAnswer("verdicts, node counts or failures differ between passes over the same inputs")
    except WrongAnswer as exc:
        print(f"WRONG ANSWER: {exc}", file=sys.stderr)
        attempted = sum(len(p.latencies) for p in passes) or 1
        print(json.dumps({"correct": False, "attempted": attempted, "failed": 0, "metrics": {}}))
        return 1

    lat_samples = sum(len(p.latencies) for p in passes)
    print(f"passes {len(passes)}, calls per pass {len(passes[0].latencies)}, latency samples {lat_samples}")
    for name, value in metrics.items():
        print(f"{name:30s} {value:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": True,
        "attempted": len(passes[0].latencies),
        "failed": passes[0].aborted + passes[0].raised,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
