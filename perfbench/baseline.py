#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each end-to-end metric.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py [--workloads cli,optimize,...] [--seeds 1-10]
                                  [--seconds S] [--write perfbench/baseline.json]

For every workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the bound
in BENCHMARK.json; then it makes one traced run on the first seed for the
per-layer metrics.  ``--write`` stores all of it and the environment as the
baseline that later changes are compared against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))


def seed_range(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int):
    """One benchmark run: (detail, result), or None if it did not finish."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return None
    return json.loads(lines[0]), json.loads(lines[-1])


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--write")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seed_range(args.seeds)
    summary = {}
    environment = None
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            outcome = run(workload, seed, args.seconds, 0)
            if outcome is None:
                ok = False
                continue
            detail, result = outcome
            environment = detail["environment"]
            ok = ok and result["correct"]
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        if len(runs) < 2:
            continue
        summary[workload] = {"runs": len(runs), "metrics": {}}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            summary[workload]["metrics"][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "unit": runs[0]["metrics"][name]["unit"]}
            print(f"  {workload:<11}{name:<13} median {median:<12.6g} spread {spread:7.3f}"
                  f"  (bound {bounds.get(name)})")
        traced = run(workload, seeds[0], args.seconds, 1)
        if traced is None:
            ok = False
            continue
        detail, result = traced
        ok = ok and result["correct"]
        summary[workload]["per_layer"] = {
            "seed": seeds[0], "absent": detail["absent"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
        print(f"  {workload:<11}traced: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items() if v["value"]))
    if args.write:
        with open(args.write, "w") as fh:
            json.dump({"environment": environment, "seeds": args.seeds,
                       "seconds": args.seconds, "workloads": summary}, fh, indent=2)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
