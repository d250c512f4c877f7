"""One workload in a fresh single-threaded process; prints one JSON result line.

Usage (from the root of a fibgrid checkout, normally via run.py):

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

The fibgrid under test is imported from ./src and nowhere else.  With
``--trace 0`` every iteration is untraced.  With ``--trace 1`` untraced and
traced iterations alternate, so the per-layer numbers come with the tracing
overhead measured against untraced iterations in the same process.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402
import workloads  # noqa: E402

# Every phase measures at least this many iterations so that it has a median,
# even when they take longer than the budget.
MIN_ITERATIONS = 3


def import_fibgrid_from_checkout() -> None:
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import fibgrid

    if not os.path.abspath(fibgrid.__file__).startswith(src + os.sep):
        raise SystemExit(f"fibgrid was imported from {fibgrid.__file__}, not from {src}")


def measure(workload, budget: float, trace: tracer.Tracer | None) -> list[dict]:
    """Run iterations for about ``budget`` seconds; return timings and checks.

    Without a tracer there is one phase.  With one, iterations alternate
    between an untraced and a traced phase, so that both phases see the same
    load on the machine and their difference is the tracing overhead.
    """
    modes = (None,) if trace is None else (None, trace)
    phases = [
        {"walls": [], "cpus": [], "attempted": 0, "problems": [], "solves": []} for _ in modes
    ]
    started = time.perf_counter()
    for i in itertools.count():
        mode, phase = modes[i % len(modes)], phases[i % len(modes)]
        walls = phase["walls"]
        if len(walls) >= MIN_ITERATIONS and (
            time.perf_counter() - started + statistics.median(walls) > budget
        ):
            break
        inputs = workload.inputs(i)
        if mode is not None:
            mode.install()
        try:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            outputs = workload.run(inputs)
            cpu1, wall1 = time.process_time(), time.perf_counter()
        finally:
            if mode is not None:
                mode.uninstall()
        walls.append(wall1 - wall0)
        phase["cpus"].append(cpu1 - cpu0)
        tried, found, solved = workload.check(inputs, outputs)
        phase["attempted"] += tried
        phase["problems"].extend(found)
        phase["solves"].extend(solved)
    for phase in phases:
        phase["iterations"] = len(phase["walls"])
        phase["wall_s"] = statistics.median(phase["walls"])
        phase["wall_mean_s"] = statistics.fmean(phase["walls"])
        phase["cpu_s"] = statistics.median(phase["cpus"])
    return phases


def solve_stats(solves: list[tuple[float, bool]]) -> dict:
    if not solves:
        return {"solves": 0, "solve_ms_p50": 0.0, "solve_ms_p90": 0.0, "solved_ratio": 0.0}
    ms = [t * 1e3 for t, _ in solves]
    return {
        "solves": len(ms),
        "solve_ms_p50": statistics.median(ms),
        "solve_ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "solved_ratio": sum(ok for _, ok in solves) / len(solves),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    import_fibgrid_from_checkout()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    result: dict = {}
    if args.trace:
        trace = tracer.Tracer()
        phases = measure(workload, args.seconds, trace)
        plain, traced = phases
        iterations = traced["iterations"]
        result["layers"] = {
            "calls": {k: v / iterations for k, v in trace.calls.items()},
            "self_s": {k: v / iterations for k, v in trace.self_s.items()},
            "counters": {k: v / iterations for k, v in trace.counters.items()},
        }
        result["traced"] = {k: traced[k] for k in ("iterations", "wall_s", "wall_mean_s")}
    else:
        phases = measure(workload, args.seconds, None)
        plain = phases[0]
    result["plain"] = {k: plain[k] for k in ("iterations", "walls", "cpus", "wall_s", "cpu_s")}
    result["plain"].update(solve_stats(plain["solves"]))
    result["attempted"] = sum(p["attempted"] for p in phases)
    result["problems"] = [msg for p in phases for msg in p["problems"]]
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
