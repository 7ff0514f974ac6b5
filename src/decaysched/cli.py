"""Command-line front end and scenario/figure plumbing.

Scenario files are JSON objects::

    {
      "probabilities": [0.8, 0.9, 0.7, 0.7],
      "decay": {"type": "additive", "rate": 0.1},
      "interval": 1.0,
      "objective": "expected"
    }

``decay.type`` is ``additive`` (with ``rate`` >= 0, the per-stage linear
step) or ``multiplicative`` (with ``factor`` strictly inside (0, 1)).
``interval`` and ``objective`` are optional and default to 1.0 and
``expected``; ``interval`` is presentational bookkeeping and is ignored for
multiplicative decay.  All item indices on the command line are 0-based.

Subcommands: ``evaluate`` (metrics for one order), ``optimize`` (exhaustive
or sorted-order search), ``simulate`` (Monte Carlo positivity for both
service strategies), ``positivity`` (closed-form + quadrature report), and
``figure`` (stage-by-item probability matrix as CSV and/or an SVG heatmap).
Every subcommand accepts ``--format structured`` for canonical JSON output
(sorted keys, compact separators) that is byte-identical across runs for
identical arguments and seeds.

Exit status: 0 on success, 2 on any validation failure (the message names
the offending field), 1 on internal errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import analysis
from .decay import (
    AdditiveDecay,
    DecaySpec,
    MultiplicativeDecay,
    as_permutation,
    linear_decay_sequence,
    stage_probabilities,
)
from .distribution import ProbabilityVector, as_probability_vector
from .scheduler import (
    Objective,
    brute_force_optimal,
    evaluate_order,
    recommended_order,
    sort_order,
    stage_item_matrix,
)

__all__ = [
    "ScenarioConfig",
    "FigureMatrix",
    "parse_scenario",
    "serialize_scenario",
    "generate_figure_matrix",
    "figure_csv",
    "figure_svg",
    "build_parser",
    "main",
]

_CSV_DECIMALS = 6

# one grid cell of the SVG heatmap, in user units
_SVG_CELL = 24.0


@dataclass(frozen=True, eq=True)
class ScenarioConfig:
    """A service-ordering problem: initial probabilities, decay law, objective."""

    probabilities: ProbabilityVector
    decay: DecaySpec
    objective: Objective = Objective.EXPECTED_SUCCESSES

    def __post_init__(self) -> None:
        object.__setattr__(self, "probabilities", as_probability_vector(self.probabilities))
        object.__setattr__(self, "objective", Objective(self.objective))
        if not isinstance(self.decay, (AdditiveDecay, MultiplicativeDecay)):
            raise TypeError(
                f"decay must be AdditiveDecay or MultiplicativeDecay, got {type(self.decay).__name__}"
            )
        if isinstance(self.decay, AdditiveDecay) and self.decay.n != self.probabilities.n:
            raise ValueError(
                f"decay has {self.decay.n} stages, expected {self.probabilities.n}"
            )


def _require_number(value: object, field_name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field_name} must be a number, got {value!r}")
    # json reads NaN, Infinity and integers too large for a float
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{field_name} must be a finite number, got {number}")
    return number


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse a scenario document (see module docstring for the format).

    Every validation failure names the offending field, with the entry index
    for per-item problems (e.g. ``probabilities[2] = 1.5 is outside [0, 1]``).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"scenario document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("scenario document must be a JSON object")
    unknown = set(doc) - {"probabilities", "decay", "interval", "objective"}
    if unknown:
        raise ValueError(f"unknown scenario field(s): {', '.join(sorted(unknown))}")

    if "probabilities" not in doc:
        raise ValueError("scenario is missing the 'probabilities' field")
    raw_probs = doc["probabilities"]
    if not isinstance(raw_probs, list) or not raw_probs:
        raise ValueError("probabilities must be a non-empty array of numbers")
    values = []
    for i, raw in enumerate(raw_probs):
        v = _require_number(raw, f"probabilities[{i}]")
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"probabilities[{i}] = {v} is outside [0, 1]")
        values.append(v)
    n = len(values)

    interval = 1.0
    if "interval" in doc:
        interval = _require_number(doc["interval"], "interval")
        if not interval > 0.0:
            raise ValueError(f"interval must be > 0, got {interval}")

    if "decay" not in doc:
        raise ValueError("scenario is missing the 'decay' field")
    raw_decay = doc["decay"]
    if not isinstance(raw_decay, dict):
        raise ValueError("decay must be an object with a 'type' field")
    decay_type = raw_decay.get("type")
    if decay_type == "additive":
        extra = set(raw_decay) - {"type", "rate"}
        if extra:
            raise ValueError(f"unknown additive decay field(s): {', '.join(sorted(extra))}")
        if "rate" not in raw_decay:
            raise ValueError("additive decay requires a 'rate' field")
        rate = _require_number(raw_decay["rate"], "decay.rate")
        if rate < 0.0:
            raise ValueError(f"decay.rate = {rate} is negative")
        decay: DecaySpec = AdditiveDecay.linear(rate, n, interval)
    elif decay_type == "multiplicative":
        extra = set(raw_decay) - {"type", "factor"}
        if extra:
            raise ValueError(f"unknown multiplicative decay field(s): {', '.join(sorted(extra))}")
        if "factor" not in raw_decay:
            raise ValueError("multiplicative decay requires a 'factor' field")
        factor = _require_number(raw_decay["factor"], "decay.factor")
        if not 0.0 < factor < 1.0:
            raise ValueError(
                f"decay.factor = {factor} is outside the open interval (0, 1)"
            )
        decay = MultiplicativeDecay(factor)
    else:
        raise ValueError(
            f"decay.type must be 'additive' or 'multiplicative', got {decay_type!r}"
        )

    objective = Objective.EXPECTED_SUCCESSES
    if "objective" in doc:
        try:
            objective = Objective(doc["objective"])
        except ValueError:
            raise ValueError(
                f"objective must be 'expected' or 'all', got {doc['objective']!r}"
            ) from None

    return ScenarioConfig(ProbabilityVector(np.array(values)), decay, objective)


def serialize_scenario(config: ScenarioConfig) -> str:
    """Render a ScenarioConfig as a scenario document; exact round-trip.

    Only linear additive decay sequences are representable (the format stores
    a single rate); arbitrary non-decreasing sequences are rejected.
    """
    doc: dict[str, object] = {
        "probabilities": [float(p) for p in config.probabilities],
        "objective": config.objective.value,
    }
    if isinstance(config.decay, AdditiveDecay):
        d = config.decay.decay_per_stage
        rate = float(d[1] - d[0]) if d.size > 1 else 0.0
        if not np.array_equal(d, linear_decay_sequence(rate, d.size)):
            raise ValueError(
                "only linear additive decay sequences can be serialized to the scenario format"
            )
        doc["decay"] = {"type": "additive", "rate": rate}
        if config.decay.interval != 1.0:
            doc["interval"] = config.decay.interval
    else:
        doc["decay"] = {"type": "multiplicative", "factor": config.decay.factor}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# figure matrix


@dataclass(frozen=True, eq=False)
class FigureMatrix:
    """Stage-by-item table of at-processing-time probabilities.

    ``cells[i, j]`` is the probability that item ``j`` (0-based, items sorted
    ascending by initial probability) succeeds if served at stage ``i + 1``,
    i.e. exactly ``(P0(j) - step * i)^+``.  Rows are non-increasing down each
    column and ascending across each row by construction.
    """

    cells: np.ndarray
    initial_probabilities: ProbabilityVector
    decay_step: float

    def __post_init__(self) -> None:
        pv = as_probability_vector(self.initial_probabilities)
        object.__setattr__(self, "initial_probabilities", pv)
        if (np.diff(pv.probs) < 0.0).any():
            raise ValueError("initial_probabilities must be sorted ascending")
        if not self.decay_step >= 0.0:
            raise ValueError(f"decay_step must be >= 0, got {self.decay_step}")
        cells = np.array(self.cells, dtype=np.float64)
        expected = stage_item_matrix(pv, AdditiveDecay.linear(self.decay_step, pv.n))
        if not np.array_equal(cells, expected):
            raise ValueError("cells do not satisfy (P0(j) - step * i)^+ exactly")
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)

    @property
    def n(self) -> int:
        return self.initial_probabilities.n


def generate_figure_matrix(
    seed: int, n: int, c: float, a: float, b: float
) -> FigureMatrix:
    """Draw n initial probabilities from Uniform(a, b), tabulate decayed values.

    The draw is sorted ascending, so the weakest item sits in column 0.
    Deterministic for a given seed.  Bounds must satisfy 0 <= a < b <= 1 so
    every cell is a probability.
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    if not c >= 0.0:
        raise ValueError(f"decay step must be >= 0, got {c}")
    if not 0.0 <= a < b <= 1.0:
        raise ValueError(f"bounds must satisfy 0 <= low < high <= 1, got low={a} high={b}")
    rng = np.random.default_rng(seed)
    draws = np.sort(rng.uniform(a, b, size=n))
    pv = ProbabilityVector(draws)
    cells = stage_item_matrix(pv, AdditiveDecay.linear(c, n))
    return FigureMatrix(cells, pv, c)


def figure_csv(matrix: FigureMatrix, header: bool = False) -> str:
    """CSV rendering: one row per stage, 6 fixed decimal places.

    With ``header`` a label row (``stage,item_1,...``) is prepended and each
    data row gains a leading 1-based stage number.
    """
    lines = []
    if header:
        lines.append("stage," + ",".join(f"item_{j + 1}" for j in range(matrix.n)))
    for i, row in enumerate(matrix.cells):
        cells = ",".join(format(v, f".{_CSV_DECIMALS}f") for v in row)
        lines.append(f"{i + 1},{cells}" if header else cells)
    return "\n".join(lines) + "\n"


def figure_svg(matrix: FigureMatrix) -> str:
    """SVG heatmap: one square per cell, bigger and darker as the value grows.

    Side length and gray level are both affine in the cell value (side from 0
    to the full cell, fill from white down to black), so zero-probability
    cells vanish into the white background.  Output is deterministic.
    """
    n = matrix.n
    size = n * _SVG_CELL
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:g}" height="{size:g}" '
        f'viewBox="0 0 {size:g} {size:g}">',
        f'<rect width="{size:g}" height="{size:g}" fill="white"/>',
    ]
    for i in range(n):
        for j in range(n):
            v = float(matrix.cells[i, j])
            side = v * _SVG_CELL
            x = j * _SVG_CELL + (_SVG_CELL - side) / 2.0
            y = i * _SVG_CELL + (_SVG_CELL - side) / 2.0
            gray = int(round(255.0 * (1.0 - v)))
            parts.append(
                f'<rect x="{x:.3f}" y="{y:.3f}" width="{side:.3f}" height="{side:.3f}" '
                f'fill="rgb({gray},{gray},{gray})"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# command-line plumbing


def _format_value(value: object) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format(value, ".10g")
    if isinstance(value, (list, tuple)):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def _emit(payload: Mapping[str, object], fmt: str) -> None:
    if fmt == "structured":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for key, value in payload.items():
            print(f"{key}: {_format_value(value)}")


def _load_scenario(args: argparse.Namespace) -> ScenarioConfig:
    if args.scenario in (None, "-"):
        return parse_scenario(sys.stdin.read())
    return parse_scenario(Path(args.scenario).read_text())


def _resolve_order(spec: str, config: ScenarioConfig) -> np.ndarray:
    n = config.probabilities.n
    if spec == "identity":
        return np.arange(n)
    if spec in ("ascending", "descending"):
        return sort_order(config.probabilities, spec)
    try:
        indices = [int(token) for token in spec.split(",")]
    except ValueError:
        raise ValueError(
            "--order must be 'identity', 'ascending', 'descending', or "
            f"comma-separated 0-based indices, got {spec!r}"
        ) from None
    return as_permutation(indices, n=n)


def _population(args: argparse.Namespace) -> analysis.PopulationModel:
    return analysis.PopulationModel(
        n=args.n, low=args.low, high=args.high, decay_step=args.decay
    )


def _cmd_evaluate(args: argparse.Namespace) -> int:
    config = _load_scenario(args)
    order = _resolve_order(args.order, config)
    pv = config.probabilities
    p1 = stage_probabilities(ProbabilityVector(pv.probs[order]), config.decay)
    metrics = evaluate_order(pv, order, config.decay)
    _emit(
        {
            "order": [int(i) for i in order],
            "stage_probabilities": [float(v) for v in p1],
            "expected_successes": metrics.expected_successes,
            "prob_all_success": metrics.prob_all_success,
        },
        args.format,
    )
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    config = _load_scenario(args)
    objective = Objective(args.objective) if args.objective else config.objective
    payload: dict[str, object] = {
        "objective": objective.value,
        "method": args.method,
    }
    if args.method == "brute":
        order, value = brute_force_optimal(config.probabilities, config.decay, objective)
    else:
        strategy = recommended_order(config.decay, objective)
        payload["strategy"] = strategy
        if strategy == "any":
            order = np.arange(config.probabilities.n)
        else:
            order = sort_order(config.probabilities, strategy)
        value = evaluate_order(config.probabilities, order, config.decay).value(objective)
    payload["order"] = [int(i) for i in order]
    payload["value"] = float(value)
    _emit(payload, args.format)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    model = _population(args)
    est_w, se_w = analysis.prob_positive_montecarlo(model, "ascending", args.trials, args.seed)
    est_s, se_s = analysis.prob_positive_montecarlo(model, "descending", args.trials, args.seed)
    _emit(
        {
            "n": model.n,
            "low": model.low,
            "high": model.high,
            "decay_step": model.decay_step,
            "trials": args.trials,
            "seed": args.seed,
            "method": "montecarlo",
            "weakest_first_estimate": est_w,
            "weakest_first_std_error": se_w,
            "strongest_first_estimate": est_s,
            "strongest_first_std_error": se_s,
        },
        args.format,
    )
    return 0


def _cmd_positivity(args: argparse.Namespace) -> int:
    model = _population(args)
    report = analysis.positivity_report(model)
    _emit(
        {
            "n": model.n,
            "low": model.low,
            "high": model.high,
            "decay_step": model.decay_step,
            "method": report.method,
            "strongest_first": report.prob_strongest_first_positive,
            "weakest_first": report.prob_weakest_first_positive,
        },
        args.format,
    )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    matrix = generate_figure_matrix(args.seed, args.n, args.decay, args.low, args.high)
    for out in args.out or []:
        path = Path(out)
        suffix = path.suffix.lower()
        if suffix == ".csv":
            path.write_text(figure_csv(matrix, header=args.header))
        elif suffix == ".svg":
            path.write_text(figure_svg(matrix))
        else:
            raise ValueError(f"--out path must end in .csv or .svg, got {out!r}")
    if args.format == "structured":
        _emit(
            {
                "n": matrix.n,
                "seed": args.seed,
                "low": args.low,
                "high": args.high,
                "decay_step": matrix.decay_step,
                "initial_probabilities": [float(p) for p in matrix.initial_probabilities],
                "cells": [[float(v) for v in row] for row in matrix.cells],
            },
            args.format,
        )
    elif not args.out:
        sys.stdout.write(figure_csv(matrix, header=args.header))
    return 0


def _add_format_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="output mode: human-readable lines or canonical JSON (default: text)",
    )


def _add_scenario_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        help="path to a scenario file, or '-' for standard input (default: standard input)",
    )


def _add_population_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=13, help="population size (default: 13)")
    parser.add_argument(
        "--decay", type=float, default=0.06, help="linear decay step per stage (default: 0.06)"
    )
    parser.add_argument(
        "--low", type=float, default=0.5, help="lower bound of the uniform draw (default: 0.5)"
    )
    parser.add_argument(
        "--high", type=float, default=1.0, help="upper bound of the uniform draw (default: 1.0)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decaysched",
        description="Evaluate, optimize, and analyze service orderings under probability decay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="metrics for a given service order")
    _add_scenario_flag(p_eval)
    p_eval.add_argument(
        "--order",
        default="identity",
        help="'identity', 'ascending', 'descending', or comma-separated 0-based indices "
        "(default: identity)",
    )
    _add_format_flag(p_eval)
    p_eval.set_defaults(func=_cmd_evaluate)

    p_opt = sub.add_parser("optimize", help="find the best service order")
    _add_scenario_flag(p_opt)
    p_opt.add_argument(
        "--objective",
        choices=("expected", "all"),
        help="metric to maximize (default: the scenario's objective)",
    )
    p_opt.add_argument(
        "--method",
        choices=("brute", "sort"),
        default="brute",
        help="exhaustive search (exact, n <= 10) or sorted-order strategy (default: brute)",
    )
    _add_format_flag(p_opt)
    p_opt.set_defaults(func=_cmd_optimize)

    p_sim = sub.add_parser(
        "simulate", help="Monte Carlo positivity probability for both service strategies"
    )
    _add_population_flags(p_sim)
    p_sim.add_argument(
        "--trials", type=int, default=100_000, help="Monte Carlo trials (default: 100000)"
    )
    p_sim.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    _add_format_flag(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_pos = sub.add_parser(
        "positivity", help="deterministic positivity report (closed form + quadrature)"
    )
    _add_population_flags(p_pos)
    _add_format_flag(p_pos)
    p_pos.set_defaults(func=_cmd_positivity)

    p_fig = sub.add_parser(
        "figure", help="stage-by-item probability matrix as CSV and/or SVG heatmap"
    )
    p_fig.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    _add_population_flags(p_fig)
    p_fig.add_argument(
        "--out",
        action="append",
        help="output path ending in .csv or .svg; may be given more than once",
    )
    p_fig.add_argument(
        "--header", action="store_true", help="prepend stage/item labels to the CSV"
    )
    _add_format_flag(p_fig)
    p_fig.set_defaults(func=_cmd_figure)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a bug, not bad input
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
