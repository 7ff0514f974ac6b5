#!/usr/bin/env python3
"""decaysched benchmark: closed-loop workloads with one client, checked by oracles.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of ``cli``, ``optimize``, ``evaluate``, ``population`` (see
``workloads.py`` for what each runs and why), or ``all`` to run the four in
turn.  BENCHMARK.json lists only ``cli`` and ``optimize``: on a shared
2-vCPU host the run-to-run spread of ``evaluate`` and ``population`` went
past the bounds, so they are run by name when a change targets them.  The
library is imported from ``src/`` of the checkout; there is nothing to
build.  Each operation is issued only after the previous one returns, in a
single process: no threads or pools.

With ``--trace 0`` the end-to-end metrics are printed:

    setup_s      median, over seven starts (three before the measured one,
                 three after), of the wall time from starting the workload
                 process to its first timed operation
    ops_per_s    operations per second over the mix of inputs a cycle holds:
                 the number of inputs divided by the sum of their latencies,
                 each input's latency being the median of its executions in
                 the run (spread over the whole run, and over every CPU)
    op_p50_ms    median operation latency, over the same per-input latencies
    op_tail_ms   highest percentile, over the same per-input latencies, with
                 at least ten samples beyond it (its percentile and sample
                 count are printed beside it); with ten samples or fewer it
                 is the largest.  ``cli`` has five inputs, its subcommands,
                 so its p50 is the median subcommand and its tail the
                 slowest subcommand
    peak_rss_mb  peak resident memory of the workload process; for ``cli``,
                 the peak over its child processes

The error rate (failed / attempted) is printed too, and is the
``attempted`` and ``failed`` fields of the result.  With ``--trace 1`` the
per-layer metrics are printed instead: ``import.*`` from ``python -X
importtime``, and per-operation span counts and times from ``tracer.py``.
Each input set then runs untraced and traced; ``trace.overhead_pct`` is the
median over inputs of how much slower the traced run was, and
``trace.coverage_pct`` the median share of an operation that top-level
spans account for.

Every output is checked; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit status
is 1 if any check failed, 2 if the checkout has no ``src/decaysched``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli", "optimize", "evaluate", "population")
SETUP_STARTS = 3  # set-up-only starts before, and again after, the measured one
RUN_LIMIT_S = 170.0  # every run must end within 180 s


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: str) -> dict:
    def version(name):
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": git_commit(root),
    }


class WorkerError(RuntimeError):
    pass


def start_worker(root, src, args, setup_only: bool, deadline: float):
    """Run one workload process; return (setup seconds, parsed result or None)."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--src", src]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = [first.strip(), *rest.strip().splitlines()]
    if lines[0] != "READY" or code != 0 or len(lines) < (1 if setup_only else 2):
        try:
            reason = json.loads(lines[-1])["fatal"]
        except (ValueError, KeyError, TypeError):
            reason = f"workload process exited {code}"
        raise WorkerError(reason)
    return setup, None if setup_only else json.loads(lines[-1])


def importtime(root: str, src: str) -> dict:
    """Cumulative import times (ms) of decaysched, scipy and numpy, plus ``-c pass``."""
    env = dict(os.environ, PYTHONPATH=src)
    found = {"decaysched": [], "scipy": [], "numpy": []}
    for _ in range(3):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import decaysched"],
                              cwd=root, env=env, capture_output=True, text=True, check=True)
        totals = dict.fromkeys(found, 0)
        ancestors: list[tuple[int, str]] = []
        # lines come children first; reversed, each entry follows its parent
        for line in reversed(proc.stderr.splitlines()):
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, name = line.split("|")
            if not cumulative.strip().isdigit():
                continue
            depth = len(name) - len(name.lstrip())
            name = name.strip()
            while ancestors and ancestors[-1][0] >= depth:
                ancestors.pop()
            for pkg in totals:
                inside = lambda n: n == pkg or n.startswith(pkg + ".")
                if inside(name) and not any(inside(a) for _, a in ancestors):
                    totals[pkg] += int(cumulative)
            ancestors.append((depth, name))
        for pkg, us in totals.items():
            found[pkg].append(us / 1e3)
    passes = []
    for _ in range(5):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=root, check=True)
        passes.append((time.perf_counter() - start) * 1e3)
    out = {f"import.{pkg}_ms": (statistics.median(v), "ms") for pkg, v in found.items()}
    out["import.python_ms"] = (statistics.median(passes), "ms")
    return out


def run_workload(root: str, src: str, args) -> tuple[bool, int, int, dict, dict]:
    deadline = time.monotonic() + RUN_LIMIT_S
    extra = 0 if args.trace else SETUP_STARTS
    setups = [start_worker(root, src, args, True, deadline)[0] for _ in range(extra)]
    setup, result = start_worker(root, src, args, False, deadline)
    setups.append(setup)
    setups += [start_worker(root, src, args, True, deadline)[0] for _ in range(extra)]
    timing = result["untraced"]
    if args.trace:
        metrics = {name: tuple(v) for name, v in result["layers"].items()}
        metrics.update(importtime(root, src))
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (timing["ops_per_s"], "1/s"),
            "op_p50_ms": (timing["op_p50_ms"], "ms"),
            "op_tail_ms": (timing["op_tail_ms"], "ms"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "cycles": result["cycles"],
        "samples": timing["samples"],
        "executions": timing["executions"],
        "tail_percentile": timing["tail_percentile"],
        "error_rate": result["failed"] / result["attempted"],
        "failures": result["failures"],
        "setup_runs_s": setups,
        "environment": {**environment(root), **result["environment"]},
    }
    if args.trace:
        detail["traced_samples"] = result["traced"]["samples"]
        detail["absent"] = result["absent"]
        detail["spans"] = result["all_spans"]
    correct = result["failed"] == 0
    return correct, result["attempted"], result["failed"], metrics, detail


def print_table(workload: str, metrics: dict, detail: dict) -> None:
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{detail['tail_percentile']:.2f} of {detail['samples']} inputs)"
        print(f"{workload:<11}{name:<58}{value:>14.6g} {unit}{note}")
    print(f"{workload:<11}{'error_rate':<58}{detail['error_rate']:>14.6g} "
          f"failed/attempted")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "decaysched", "__init__.py")):
        print(f"no decaysched source under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, merged = True, 0, 0, {}
    for name in names:
        try:
            ok, att, fail, metrics, detail = run_workload(
                root, src, argparse.Namespace(**{**vars(args), "workload": name}))
        except WorkerError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            ok, att, fail, metrics, detail = False, 1, 1, {}, None
        if detail is not None:
            print(json.dumps(detail))
            print_table(name, metrics, detail)
            for failure in detail["failures"]:
                print(f"{name}: failed: {failure}", file=sys.stderr)
        correct, attempted, failed = correct and ok, attempted + att, failed + fail
        prefix = f"{name}." if args.workload == "all" else ""
        merged.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": merged}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
