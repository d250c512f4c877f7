"""fibgrid benchmark: one workload, measured from outside the package.

Run from the root of a fibgrid checkout (the directory holding src/fibgrid):

    python3 perfbench/run.py --workload table|deep|grid --seed N --seconds S --trace 0|1

Set-up time is measured first, in fresh interpreters; then the workload runs
in one fresh single-threaded worker process (worker.py), which also checks
every output.  The report's last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  README.md in
this directory describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))

# Every run, worker included, must end within this many seconds.
DEADLINE_S = 170.0

# setup_s is the median of fresh imports taken in two batches of this size,
# one before the worker and one after, so that the samples span the changes in
# machine load during the run.  Each batch starts with one unrecorded import,
# which leaves the bytecode cache warm, as an installed package has it.
SETUP_BATCH = 8
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import fibgrid.cli\n"
    "print(time.perf_counter() - start)\n"
    "print(fibgrid.cli.__file__)\n"
)

# Per-layer labels recorded by tracer.py.  Labels of modules not named here
# (sierpinski, or a module added later) are summed into "other".
LAYERS = ("cli", "conjectures", "nullity", "fibpoly", "polygf2", "grid.eliminate", "grid.solve", "grid.other")
DEGREE_BUCKETS = [name for _, name in tracer.DEGREE_BUCKETS] + [tracer.DEGREE_TOP]


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def run_child(cmd: list[str], deadline: float) -> str:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting " + cmd[-1])
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchError(f"timed out after {exc.timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def measure_setup(src: str, deadline: float) -> list[float]:
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, src]
    samples = []
    for i in range(SETUP_BATCH + 1):
        seconds, path = run_child(cmd, deadline).split("\n")[:2]
        if not os.path.abspath(path).startswith(src + os.sep):
            raise BenchError(f"fibgrid.cli was imported from {path}, not from {src}")
        if i:
            samples.append(float(seconds))
    return samples


def end_to_end_metrics(result: dict, setup_s: float) -> dict:
    plain = result["plain"]
    return {
        "wall_s": {"value": plain["wall_s"], "unit": "s"},
        "cpu_s": {"value": plain["cpu_s"], "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
    }


def per_layer_metrics(result: dict) -> dict:
    layers = result["layers"]
    calls, self_s, counters = layers["calls"], layers["self_s"], layers["counters"]
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = {"value": calls.get(layer, 0), "unit": "count"}
        metrics[f"{layer}.self_s"] = {"value": self_s.get(layer, 0.0), "unit": "s"}
    known = set(LAYERS)
    others = [k for k in calls if k not in known]
    metrics["other.calls"] = {"value": sum(calls[k] for k in others), "unit": "count"}
    metrics["other.self_s"] = {"value": sum(self_s.get(k, 0.0) for k in others), "unit": "s"}
    metrics["fibpoly.bits_out"] = {"value": counters.get("fibpoly.bits_out", 0), "unit": "bit"}
    metrics["polygf2.bits_in"] = {"value": counters.get("polygf2.bits_in", 0), "unit": "bit"}
    for bucket in DEGREE_BUCKETS:
        value = self_s.get(f"polygf2.{bucket}", 0.0)
        metrics[f"polygf2.self_s.{bucket}"] = {"value": value, "unit": "s"}
    plain, traced = result["plain"], result["traced"]
    metrics["grid.solve.solved_ratio"] = {"value": plain["solved_ratio"], "unit": "ratio"}
    metrics["grid.solve.ms_p50"] = {"value": plain["solve_ms_p50"], "unit": "ms"}
    metrics["grid.solve.ms_p90"] = {"value": plain["solve_ms_p90"], "unit": "ms"}
    # per-layer values are means over the traced iterations, so their shares
    # are taken of the mean traced wall time; the overhead compares medians
    metrics["trace.wall_s"] = {"value": traced["wall_mean_s"], "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced["wall_s"] - plain["wall_s"], "unit": "s"}
    return metrics


def report(args, result: dict, metrics: dict) -> None:
    plain = result["plain"]
    failed = len(result["problems"])
    print(f"fibgrid benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print(f"  untraced iterations: {plain['iterations']}")
    if plain["solves"]:
        print(f"  board solves: {plain['solves']} untraced, "
              f"solve_ms_p50 {plain['solve_ms_p50']:.3f} ms, "
              f"solve_ms_p90 {plain['solve_ms_p90']:.3f} ms")
    if args.trace:
        print(f"  traced iterations: {result['traced']['iterations']}; "
              "per-layer values are means per iteration, shares are of trace.wall_s")
    for name, m in metrics.items():
        share = ""
        if args.trace and ".self_s" in name:
            share = f"  ({100 * m['value'] / result['traced']['wall_mean_s']:.1f}%)"
        print(f"  {name:<28} {m['value']:.6g} {m['unit']}{share}")
    print(f"  failed_frac {failed / result['attempted']:.6g} "
          f"({failed} of {result['attempted']} operations failed)")
    for problem in result["problems"][:10]:
        print(f"  FAILED: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    deadline = time.monotonic() + DEADLINE_S
    src = os.path.abspath("src")
    try:
        if not os.path.isfile(os.path.join(src, "fibgrid", "cli.py")):
            raise BenchError("run from the root of a fibgrid checkout: src/fibgrid/cli.py not found")
        setup = measure_setup(src, deadline)
        cmd = [sys.executable, "-I", os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        result = json.loads(run_child(cmd, deadline).strip().splitlines()[-1])
        setup_s = statistics.median(setup + measure_setup(src, deadline))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics = per_layer_metrics(result)
    else:
        metrics = end_to_end_metrics(result, setup_s)
    report(args, result, metrics)
    failed = len(result["problems"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
