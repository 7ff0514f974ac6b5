"""One workload process: set up, print READY, run whole cycles, print a JSON result.

Started by ``run.py``; not meant to be run by hand.  The time from this
process starting to the READY line is the workload's set-up time, so
everything before it (interpreter, ``import decaysched``, input generation,
oracle preparation and warm-up) counts as set-up.  The paper's pinned
values are checked after the timed phase, so that the quadrature they need
is not set-up; a mismatch still fails the whole run.

With ``--trace 1`` each input set runs twice in a row, once untraced and
once traced, taking turns which goes first.  The untraced runs are the
baseline for the tracing overhead, compared input by input.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))

# per-layer metrics read from the trace: (metric, wrapped name, field, unit)
TRACE_METRICS = [
    ("cli.parse_scenario.busy_ms", "cli.parse_scenario", "busy", "ms/op"),
    ("kernels.best_permutation.busy_ms", "kernels.best_permutation", "busy", "ms/op"),
    ("kernels.best_permutation.calls", "kernels.best_permutation", "calls", "calls/op"),
    ("scheduler.brute_force_optimal.self_ms", "scheduler.brute_force_optimal", "self", "ms/op"),
    ("scheduler.stage_item_matrix.busy_ms", "scheduler.stage_item_matrix", "busy", "ms/op"),
    ("scheduler.evaluate_order.self_ms", "scheduler.evaluate_order", "self", "ms/op"),
    ("decay.stage_probabilities.busy_ms", "decay.stage_probabilities", "busy", "ms/op"),
    ("distribution.success_count_pmf.busy_ms", "distribution.success_count_pmf", "busy", "ms/op"),
    ("distribution.ProbabilityVector.per_op", "distribution.ProbabilityVector", "calls",
     "calls/op"),
    ("analysis.prob_weakest_first_positive_quadrature.busy_ms",
     "analysis.prob_weakest_first_positive_quadrature", "busy", "ms/op"),
    ("analysis.quad.calls", "analysis.quad", "calls", "calls/op"),
    ("analysis.prob_positive_montecarlo.self_ms", "analysis.prob_positive_montecarlo", "self",
     "ms/op"),
    ("kernels.count_positive_trials.busy_ms", "kernels.count_positive_trials", "busy", "ms/op"),
    ("kernels.count_positive_trials.rows", "kernels.count_positive_trials", "rows", "rows/op"),
]
CLI_SUBCOMMANDS = ("evaluate", "optimize", "positivity", "simulate", "figure")


def timing_summary(latencies: dict) -> dict:
    """Throughput, median and tail of operation latencies (seconds) keyed by input.

    Each input's latency is the median of its executions in the run, which
    are spread over the whole run and over every CPU, so that a stall of the
    host during one execution does not pose as a slow input.  Throughput is
    the number of inputs divided by the sum of their latencies, so it is
    taken over the mix of inputs a cycle holds, however often each runs.
    The median and the tail are taken over inputs; the tail is the highest
    percentile with at least ten samples beyond it: the eleventh-largest, at
    percentile 100 * (N - 10) / N.  With fewer than eleven samples it is the
    maximum.
    """
    ordered = sorted(statistics.median(times) for times in latencies.values())
    n = len(ordered)
    tail_index = n - 11 if n > 10 else n - 1
    return {
        "samples": n,
        "executions": sum(len(times) for times in latencies.values()),
        "ops_per_s": n / sum(ordered),
        "op_p50_ms": statistics.median(ordered) * 1e3,
        "op_tail_ms": ordered[tail_index] * 1e3,
        "tail_percentile": 100.0 * (tail_index + 1) / n,
    }


def build(name: str, ds, seed: int, src: str):
    import workloads

    if name == "cli":
        return workloads.Cli(ds, seed, src, BENCH)
    return {"optimize": workloads.Optimize, "evaluate": workloads.Evaluate,
            "population": workloads.Population}[name](ds, seed)


def tracing_overhead(latencies: dict) -> float:
    """Median over inputs of traced / untraced latency, minus one, in percent."""
    ratios = [statistics.median(latencies[True][key]) / statistics.median(times)
              for key, times in latencies[False].items() if key in latencies[True]]
    return 100.0 * (statistics.median(ratios) - 1.0)


def layer_metrics(tracer, workload, traced, untraced, latencies, coverage):
    """Per-layer metrics per traced operation, and the wrapped names not found."""
    ops = max(traced["executions"], 1)
    metrics, absent = {}, []
    for metric, name, field, unit in TRACE_METRICS:
        calls, busy_ns, self_ns = tracer.stats.get(name, (0, 0, 0))
        if name not in tracer.stats:
            absent.append(name)
        value = {"calls": calls, "busy": busy_ns / 1e6, "self": self_ns / 1e6,
                 "rows": tracer.rows}[field]
        metrics[metric] = (value / ops, unit)
    metrics["analysis.quad.warnings"] = (getattr(workload, "warnings", 0) / ops, "count/op")
    per_command = {sub: [] for sub in CLI_SUBCOMMANDS}
    for sub, snap, _ in getattr(workload, "child_traces", []):
        per_command[sub].append(snap["stats"].get("cli.main", (0, 0, 0))[1] / 1e6)
    for sub, values in per_command.items():
        metrics[f"cli.main.{sub}_ms"] = (statistics.median(values) if values else 0.0, "ms")
    all_ops = traced["executions"] + untraced["executions"]
    metrics["cli.stderr_bytes"] = (getattr(workload, "stderr_bytes", 0) / all_ops, "bytes/op")
    metrics["trace.overhead_pct"] = (tracing_overhead(latencies), "%")
    metrics["trace.coverage_pct"] = (100.0 * statistics.median(coverage), "%")
    return metrics, absent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    sys.path.insert(0, BENCH)
    import decaysched as ds

    if not os.path.abspath(ds.__file__).startswith(args.src + os.sep):
        print(f"decaysched was imported from {ds.__file__}, not {args.src}", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    workload = build(args.workload, ds, args.seed, args.src)
    if hasattr(workload, "backend_probe"):
        fatal = workloads.backends_agree(ds, workload.backend_probe)
        if fatal is not None:
            print(json.dumps({"fatal": fatal}))
            return 1
    workload.warm_up()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    in_process = args.workload != "cli"
    latencies = {False: {}, True: {}}  # traced -> {(input set, slot): [seconds]}
    coverage = []
    attempted = failed = 0
    failures = []
    start = time.perf_counter()
    cycle = 0
    step = 2 if args.trace else 1
    cpus = sorted(os.sched_getaffinity(0))
    shuffler = random.Random(args.seed)
    repeats = getattr(workload, "repeats", {})  # label -> executions per cycle
    while True:
        # when tracing, each input set runs twice in a row, untraced and traced,
        # in turns first, so that the two are compared on the same inputs
        inputs = cycle // step
        if cycle % step == 0:
            # the CPUs of a shared host run at speeds that differ and change
            # over tens of seconds, and a process left alone stays on one of
            # them; so each cycle (each untraced/traced pair) is moved to the
            # next CPU in turn.  The affinity is widened again at once, so
            # the program may still use every CPU.
            os.sched_setaffinity(0, {cpus[inputs % len(cpus)]})
            os.sched_setaffinity(0, cpus)
        traced = bool(args.trace) and (cycle + inputs) % 2 == 1
        if traced and in_process:
            tracer.install()
        try:
            # a cheap input may run several times a cycle, so that it too has
            # enough executions; and in a shuffled order, so that no input
            # always follows the same one: an operation runs slower after one
            # that churned the caches
            ops = [(slot, op) for slot, op in enumerate(workload.cycle(inputs, traced))
                   for _ in range(repeats.get(op[0], 1))]
            shuffler.shuffle(ops)
            for slot, (label, run, check) in ops:
                top_before = tracer.top_ns if traced else 0
                t0 = time.perf_counter()
                try:
                    result = run()
                    error = None
                except Exception as exc:  # a failed operation is counted, not fatal
                    error = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - t0
                if traced and in_process:
                    coverage.append((tracer.top_ns - top_before) / 1e9 / elapsed)
                attempted += 1
                if error is None:
                    error = check(result)
                if error is not None:
                    failed += 1
                    if len(failures) < 5:
                        failures.append(f"{label}: {error}")
                key = (inputs % workload.pool_size, slot)
                latencies[traced].setdefault(key, []).append(elapsed)
        finally:
            if traced and in_process:
                tracer.uninstall()
        cycle += 1
        # stop before a further cycle (a further untraced/traced pair when
        # tracing) would run past --seconds, going by the mean cycle so far
        if cycle % step == 0:
            spent = time.perf_counter() - start
            if spent + step * spent / cycle > args.seconds:
                break

    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    fatal = workloads.check_reference(ds)
    if fatal is not None:
        print(json.dumps({"fatal": fatal}))
        return 1
    out = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "cycles": cycle,
        "peak_rss_mb": peak_rss_mb,
        "untraced": timing_summary(latencies[False]),
        "environment": {
            "backend": getattr(ds, "get_backend", lambda: None)(),
            "decaysched": getattr(ds, "__version__", None),
        },
    }
    if args.trace:
        for sub, snap, wall in getattr(workload, "child_traces", []):
            # a CLI child's wrapped spans against the whole child process
            tracer.merge(snap)
            coverage.append(snap["top_ns"] / 1e9 / wall)
        out["traced"] = timing_summary(latencies[True])
        metrics, absent = layer_metrics(tracer, workload, out["traced"], out["untraced"],
                                        latencies, coverage)
        out["layers"] = metrics
        out["absent"] = absent
        out["all_spans"] = {name: {"calls": s[0], "busy_ms": s[1] / 1e6, "self_ms": s[2] / 1e6}
                            for name, s in sorted(tracer.stats.items()) if s[0]}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
