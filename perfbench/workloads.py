"""The four workloads: seeded inputs, the operation, and an independent oracle.

Each workload is a closed loop with one client.  ``cycle(c, traced)``
returns the operations of cycle ``c`` as ``(label, run, check)`` triples:
only ``run()`` is timed, and ``check(result)`` returns ``None`` or a
message saying why the output is wrong.  A cycle always holds the same mix
of input sizes, and the worker runs whole cycles, so every run sees the same
mix whatever its seed; the seed only chooses the values.  Cycle ``c`` uses
input set ``c % pool_size``, so an input comes round again every
``pool_size`` cycles.  A workload's ``repeats`` maps a label to how many
times the worker runs each operation with that label in a cycle (once if
absent), so that cheap inputs are timed often enough.

Inputs are made here from the seed; decaysched only ever sees the generated
values.  The oracles do not use the code path they check: the search is
checked against the paper's sorted-order theorems, the pmf against sums and
products taken in numpy, Monte Carlo against the deterministic value, and a
CLI subprocess against ``cli.main`` run in this process during set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings

import numpy as np

# the paper's reference population and the values the repository pins for it
REFERENCE = dict(n=13, low=0.5, high=1.0, decay_step=0.06)
REFERENCE_STRONGEST = 0.56**13
REFERENCE_WEAKEST = 0.9999677

POOL = 8  # distinct input sets per slot; cycle c uses set c % POOL

CONSOLE_SCRIPT = "import sys\nfrom decaysched.cli import main\nsys.exit(main())"
TRACED_SCRIPT = (
    "import json, os, sys\n"
    "sys.path.insert(0, {bench!r})\n"
    "from tracer import Tracer\n"
    "tracer = Tracer()\n"
    "tracer.install()\n"
    "from decaysched.cli import main\n"
    "try:\n"
    "    code = main()\n"
    "finally:\n"
    "    os.write(int(os.environ['PERFBENCH_TRACE_FD']), json.dumps(tracer.snapshot()).encode())\n"
    "sys.exit(code)"
)


def check_reference(ds) -> str | None:
    """The paper's pinned numbers; a mismatch fails the whole run."""
    report = ds.positivity_report(ds.PopulationModel(**REFERENCE))
    if report.prob_strongest_first_positive != REFERENCE_STRONGEST:
        return f"strongest-first {report.prob_strongest_first_positive!r} != 0.56**13"
    if abs(report.prob_weakest_first_positive - REFERENCE_WEAKEST) > 1e-5:
        return f"weakest-first {report.prob_weakest_first_positive!r} != 0.9999677 +- 1e-5"
    return None


def _rel_close(got: float, want: float, rel: float) -> bool:
    if want == 0.0:
        return got == 0.0
    return abs(got - want) <= rel * abs(want)


def backends_agree(ds, fn) -> str | None:
    """Where several kernel backends are importable, they must agree bit for bit."""
    available = getattr(ds, "available_backends", None)
    if available is None or len(available()) < 2:
        return None
    previous = ds.get_backend()
    try:
        results = []
        for name in available():
            ds.set_backend(name)
            results.append((name, repr(fn())))
    finally:
        ds.set_backend(previous)
    first_name, first = results[0]
    for name, result in results[1:]:
        if result != first:
            return f"backend {name} disagrees with {first_name}"
    return None


# ---------------------------------------------------------------------------


class Optimize:
    """brute_force_optimal in-process, n from 6 to 9, both objectives and laws.

    A cycle holds, for each of the four objective/law pairs, two tables each
    of n = 6, 7, 8 and one of n = 9.  Half of the tables draw from a 0.1
    grid, so they are full of ties; additive steps are large enough to clamp
    items to zero.  Every cycle runs the same 28 tables, the cheap ones
    several times, so that each runs dozens of times in a run and its
    median is well measured.  n = 10 is left out: one search takes about
    2 s, so a run could time it only a few times, and the run-to-run spread
    of the whole workload went past its bounds.
    """

    SIZES = (6, 6, 7, 7, 8, 8, 9)
    pool_size = 1
    repeats = {"n6": 8, "n7": 8, "n8": 2}  # executions per cycle of the cheap tables

    def __init__(self, ds, seed: int) -> None:
        self.ds = ds
        rng = np.random.default_rng(seed)
        combos = [
            (objective, law)
            for objective in (ds.Objective.EXPECTED_SUCCESSES, ds.Objective.PROB_ALL_SUCCESS)
            for law in ("additive", "multiplicative")
        ]
        self.cases = []
        for objective, law in combos:
            for i, n in enumerate(self.SIZES):
                self.cases.append(self._case(rng, n, objective, law, ties=i % 2 == 1))

    def _case(self, rng, n, objective, law, ties):
        ds = self.ds
        if ties:
            p0 = rng.integers(1, 11, size=n) / 10.0
        else:
            p0 = rng.uniform(0.05, 1.0, size=n)
        if law == "additive":
            decay = ds.AdditiveDecay.linear(float(rng.uniform(0.02, 0.15)), n)
        else:
            decay = ds.MultiplicativeDecay(float(rng.uniform(0.5, 0.95)))
        strategy = ds.recommended_order(decay, objective)
        order = np.arange(n) if strategy == "any" else ds.sort_order(p0, strategy)
        expected = ds.evaluate_order(p0, order, decay).value(objective)
        if law == "additive":
            table = np.maximum(p0[None, :] - decay.decay_per_stage[:, None], 0.0)
        else:
            table = p0[None, :] * decay.factor ** np.arange(n, dtype=float)[:, None]
        return p0, decay, objective, expected, table

    def warm_up(self) -> None:
        # an n = 9 search allocates the full permutation batches
        p0, decay, objective, _, _ = self.cases[len(self.SIZES) - 1]
        self.ds.brute_force_optimal(p0, decay, objective)

    def backend_probe(self):
        p0, decay, objective, _, _ = self.cases[4]  # an n = 8 table
        order, value = self.ds.brute_force_optimal(p0, decay, objective)
        return order.tolist(), value

    def cycle(self, c: int, traced: bool):
        ops = []
        for p0, decay, objective, expected, table in self.cases:
            run = (lambda p0=p0, decay=decay, objective=objective:
                   self.ds.brute_force_optimal(p0, decay, objective))
            ops.append((f"n{p0.size}", run, self._checker(objective, expected, table)))
        return ops

    def _checker(self, objective, expected, table):
        product = objective is self.ds.Objective.PROB_ALL_SUCCESS

        def check(result):
            order, value = result
            n = table.shape[0]
            if sorted(int(i) for i in order) != list(range(n)):
                return f"order {list(order)} is not a permutation"
            if not _rel_close(value, expected, 1e-12):
                return f"value {value!r} != sorted-order optimum {expected!r}"
            picked = table[np.arange(n), np.asarray(order)]
            achieved = float(np.prod(picked) if product else np.sum(picked))
            if not _rel_close(achieved, value, 1e-12):
                return f"order achieves {achieved!r}, reported {value!r}"
            return None

        return check


# ---------------------------------------------------------------------------


class Evaluate:
    """evaluate_order in-process, n log-spaced from 4 to 2000, both laws.

    Each cycle evaluates every size under both laws in identity, ascending
    and descending order.  Additive steps clamp up to about half the items at
    large n; multiplicative factors decay the last stage to 1%..50%.
    """

    SIZES = tuple(int(n) for n in np.unique(np.round(np.geomspace(4, 2000, 11))))
    pool_size = POOL

    def __init__(self, ds, seed: int) -> None:
        self.ds = ds
        rng = np.random.default_rng(seed)
        self.pool = []
        for _ in range(POOL):
            cases = []
            for n in self.SIZES:
                for law in ("additive", "multiplicative"):
                    p0 = rng.uniform(0.05, 1.0, size=n)
                    stages = np.arange(n, dtype=float)
                    if law == "additive":
                        rate = float(rng.uniform(0.2, 1.5)) / n
                        decay = ds.AdditiveDecay.linear(rate, n)
                        decayed = lambda served, drops=rate * stages: np.maximum(served - drops, 0)
                    else:
                        factor = math.exp(math.log(rng.uniform(0.01, 0.5)) / (n - 1))
                        decay = ds.MultiplicativeDecay(factor)
                        decayed = lambda served, kept=factor**stages: served * kept
                    for order in (np.arange(n), np.argsort(p0, kind="stable"),
                                  np.argsort(-p0, kind="stable")):
                        cases.append((p0, order, decay, decayed))
            self.pool.append(cases)

    def warm_up(self) -> None:
        for p0, order, decay, _ in self.pool[0]:
            self.ds.evaluate_order(p0, order, decay)

    def cycle(self, c: int, traced: bool):
        ops = []
        for p0, order, decay, decayed in self.pool[c % POOL]:
            run = lambda p0=p0, order=order, decay=decay: self.ds.evaluate_order(p0, order, decay)
            ops.append((f"n{p0.size}", run, self._checker(decayed(p0[order]))))
        return ops

    @staticmethod
    def _checker(p1):
        """Checks against the stage probabilities ``p1``, computed here in numpy."""

        def check(metrics):
            n = p1.size
            # rounding in an n-term convolution grows linearly with n
            tol = 1e-13 * n
            mass = metrics.pmf.mass
            if mass.size != n + 1:
                return f"pmf has {mass.size} entries for n = {n}"
            if abs(float(mass.sum()) - 1.0) > tol:
                return f"pmf sums to {float(mass.sum())!r}"
            mean = float(np.arange(n + 1) @ mass)
            if abs(mean - float(p1.sum())) > tol * max(1.0, float(p1.sum())):
                return f"pmf mean {mean!r} != sum of stage probabilities {float(p1.sum())!r}"
            if abs(float(mass[-1]) - float(np.prod(p1))) > tol * float(np.prod(p1)) + 1e-300:
                return f"pmf top {float(mass[-1])!r} != product {float(np.prod(p1))!r}"
            return None

        return check


# ---------------------------------------------------------------------------


class Population:
    """positivity_report plus a seeded Monte Carlo cross-check per operation.

    The decay step sweeps the reference population (n = 13, U(0.5, 1)) so
    that the number m of active thresholds runs from 0 to 5.  A cycle holds
    two models for each m from 0 to 4 and one model with m = 5.  m = 6 is
    left out: one quadrature there takes about 45 s.

    The cost of a quadrature varies by up to 2x across the band of steps that
    give one m, so the steps are stratified: input set j draws from stratum
    bitreverse(j) of POOL equal strata of each band, and any run of a few
    consecutive cycles covers every band evenly, whatever the seed.
    """

    TRIALS = 50_000
    pool_size = POOL
    MIX = (0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5)

    def __init__(self, ds, seed: int) -> None:
        self.ds = ds
        rng = np.random.default_rng(seed)
        n, low = REFERENCE["n"], REFERENCE["low"]
        self.warnings = 0  # warnings raised during traced operations
        self.pool = []
        bits = (POOL - 1).bit_length()
        for j in range(POOL):
            stratum = int(format(j, f"0{bits}b")[::-1], 2)
            cases = []
            for i, m in enumerate(self.MIX):
                # d * k > low holds for exactly m stages k in 0..n-1 on this band
                lo, hi = low / (n - m), low / (n - 1 - m)
                # the two models of one m split the stratum in halves
                parts = self.MIX.count(m)
                u = (stratum + (i % parts + rng.uniform(0.1, 0.9)) / parts) / POOL
                d = lo + (hi - lo) * u
                assert int((d * np.arange(n) > low).sum()) == m
                model = ds.PopulationModel(n=n, low=low, high=REFERENCE["high"], decay_step=d)
                cases.append((m, model, int(rng.integers(2**31))))
            self.pool.append(cases)

    def _run(self, model, mc_seed):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            exact = self.ds.positivity_report(model)
            simulated = self.ds.positivity_report_montecarlo(model, self.TRIALS, mc_seed)
        return exact, simulated, len(caught)

    def warm_up(self) -> None:
        m, model, mc_seed = self.pool[0][0]
        self._run(model, mc_seed)

    def backend_probe(self):
        m, model, mc_seed = self.pool[0][-1]
        return self.ds.positivity_report_montecarlo(model, self.TRIALS, mc_seed)

    def cycle(self, c: int, traced: bool):
        ops = []
        for m, model, mc_seed in self.pool[c % POOL]:
            run = lambda model=model, mc_seed=mc_seed: self._run(model, mc_seed)
            ops.append((f"m{m}", run, lambda result, traced=traced: self._check(result, traced)))
        return ops

    def _check(self, result, traced):
        exact, simulated, caught = result
        if traced:
            self.warnings += caught
        t = self.TRIALS
        for label, p, est in (
            ("weakest-first", exact.prob_weakest_first_positive,
             simulated.prob_weakest_first_positive),
            ("strongest-first", exact.prob_strongest_first_positive,
             simulated.prob_strongest_first_positive),
        ):
            # 5 standard errors at the exact value, plus five trials of slack:
            # with a handful of expected failures the normal approximation
            # alone would flag one stray failure as a 5-sigma miss
            bound = 5.0 * math.sqrt(p * (1.0 - p) / t) + 5.0 / t
            if abs(est - p) > bound:
                return f"{label}: Monte Carlo {est!r} vs exact {p!r}, bound {bound:.3g}"
        return None


# ---------------------------------------------------------------------------


class Cli:
    """Each operation is a fresh ``decaysched`` process with --format structured.

    A cycle runs evaluate (n = 4), optimize (brute force, n = 8), positivity
    (the reference model), simulate (1e5 trials) and figure (n = 13).  The
    process is started as the console script does, through
    ``decaysched.cli:main``; its stdout must match, byte for byte, what
    ``cli.main`` printed for the same arguments in this process.
    """

    pool_size = 1  # every cycle repeats the same five calls

    def __init__(self, ds, seed: int, src: str, bench: str) -> None:
        from decaysched import cli

        self.src, self.bench = src, bench
        rng = np.random.default_rng(seed)

        def scenario(n, rate):
            probs = [round(float(v), 2) for v in rng.uniform(0.3, 1.0, n)]
            return json.dumps({"probabilities": probs,
                               "decay": {"type": "additive", "rate": rate}})

        order = ("identity", "ascending", "descending")[int(rng.integers(3))]
        objective = ("expected", "all")[int(rng.integers(2))]
        self.calls = [
            ("evaluate", ["evaluate", "--scenario", "-", "--order", order],
             scenario(4, round(float(rng.uniform(0.05, 0.15)), 3))),
            ("optimize", ["optimize", "--scenario", "-", "--objective", objective],
             scenario(8, round(float(rng.uniform(0.02, 0.1)), 3))),
            ("positivity", ["positivity"], None),
            ("simulate", ["simulate", "--trials", "100000",
                          "--seed", str(int(rng.integers(2**31)))], None),
            ("figure", ["figure", "--n", "13", "--seed", str(int(rng.integers(2**31)))], None),
        ]
        self.calls = [(name, argv + ["--format", "structured"], stdin)
                      for name, argv, stdin in self.calls]
        self.expected = {}
        for name, argv, stdin in self.calls:
            out = io.StringIO()
            saved = sys.stdin
            sys.stdin = io.StringIO(stdin or "")
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv)
            finally:
                sys.stdin = saved
            if code != 0:
                raise RuntimeError(f"in-process cli.main {argv} exited {code}")
            self.expected[name] = out.getvalue().encode()
        positivity = json.loads(self.expected["positivity"])
        if (positivity["strongest_first"] != REFERENCE_STRONGEST
                or abs(positivity["weakest_first"] - REFERENCE_WEAKEST) > 1e-5):
            raise RuntimeError(f"positivity output misses the pinned values: {positivity}")
        self.env = dict(os.environ, PYTHONPATH=src)
        self.stderr_bytes = 0
        self.child_traces = []  # (subcommand, tracer snapshot, wall s) of traced children

    def cycle(self, c: int, traced: bool):
        return [(name, lambda argv=argv, stdin=stdin, name=name: self._run(name, argv, stdin, traced),
                 self._checker(name)) for name, argv, stdin in self.calls]

    def _run(self, name, argv, stdin, traced):
        if not traced:
            return subprocess.run([sys.executable, "-c", CONSOLE_SCRIPT, *argv],
                                  input=(stdin or "").encode(), capture_output=True,
                                  env=self.env), None
        read_fd, write_fd = os.pipe()
        try:
            env = dict(self.env, PERFBENCH_TRACE_FD=str(write_fd))
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", TRACED_SCRIPT.format(bench=self.bench),
                                   *argv], input=(stdin or "").encode(), capture_output=True,
                                  env=env, pass_fds=(write_fd,))
            wall = time.perf_counter() - start
            os.close(write_fd)
            write_fd = -1
            chunks = []
            while chunk := os.read(read_fd, 65536):
                chunks.append(chunk)
        finally:
            if write_fd >= 0:
                os.close(write_fd)
            os.close(read_fd)
        return proc, (name, json.loads(b"".join(chunks)), wall)

    def _checker(self, name):
        def check(result):
            proc, trace = result
            self.stderr_bytes += len(proc.stderr)
            if trace is not None:
                self.child_traces.append(trace)
            if proc.returncode != 0:
                return f"{name} exited {proc.returncode}: {proc.stderr[-300:]!r}"
            try:
                json.loads(proc.stdout)
            except ValueError:
                return f"{name} printed output that does not parse: {proc.stdout[:200]!r}"
            if proc.stdout != self.expected[name]:
                return f"{name} stdout differs from in-process cli.main"
            return None

        return check

    def warm_up(self) -> None:
        pass
