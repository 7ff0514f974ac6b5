"""Command-line front end: argument handling, the five subcommands and every output format.

Subcommands: ``evaluate`` (metrics for one order), ``optimize`` (exhaustive
or sorted-order search), ``simulate`` (Monte Carlo positivity for both
service strategies), ``positivity`` (closed forms for both strategies), and
``figure`` (stage-by-item probability matrix as CSV, JSON or an SVG heatmap).
All item indices on the command line are 0-based.

``evaluate`` and ``optimize`` read a scenario document, a UTF-8 JSON object
such as ``{"probabilities": [0.8, 0.9], "decay": {"type": "additive",
"rate": 0.1}}``.  ``decay.type`` is ``additive`` (with ``rate`` >= 0, the
per-stage linear step) or ``multiplicative`` (with ``factor`` strictly inside
(0, 1)); no other key is accepted.  The document is the instance only: what
``optimize`` maximizes is its ``--objective``.  This module checks only the
document's shape; each value is checked once, by the type it builds.

Every subcommand prints to standard output and accepts ``--format
structured`` for canonical JSON output (sorted keys, compact separators)
that is byte-identical across runs for identical arguments and seeds;
``figure`` also takes ``--format svg``.  The library returns arrays and
records; this module renders them as text, JSON, CSV or SVG.

Exit status: 0 on success, 2 on any validation failure (the message names
the offending field), 1 on internal errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path
from typing import Mapping, NoReturn, Sequence

import numpy as np

from . import analysis
from .decay import AdditiveDecay, MultiplicativeDecay
from .distribution import ProbabilityVector
from .scheduler import (
    BRUTE_FORCE_MAX_ITEMS,
    brute_force_optimal,
    evaluate_order,
    recommended_order,
    sort_order,
)

__all__ = ["build_parser", "main"]

# largest --n of figure: a figure holds n**2 cells (CSV at n = 3000: about 10 s
# and 340 MB); the library bounds every other input
_MAX_FIGURE_N = 1_000

# most characters of an argument that an error message echoes, as in the library's messages
_ECHO_LIMIT = 100

_CSV_DECIMALS = 6

# one grid cell of the SVG heatmap, in user units
_SVG_CELL = 24.0

# each law's ``decay.type`` and the one number field that sets it
_LAW_FIELDS = {"additive": "rate", "multiplicative": "factor"}

_Scenario = tuple[ProbabilityVector, AdditiveDecay | MultiplicativeDecay]


def _cut(text: str, quote: str = "") -> str:
    """``text`` in ``quote``s, cut to ``_ECHO_LIMIT`` characters: its start, "..." and length."""
    if len(text) <= _ECHO_LIMIT:
        return f"{quote}{text}{quote}"
    head = text[:_ECHO_LIMIT]  # a repr's cut drops the lone \ of a split escape such as \n
    head = head[:-1] if quote and (len(head) - len(head.rstrip("\\"))) % 2 else head
    return f"{quote}{head}{quote}... ({len(text)} characters)"


class _ArgumentParser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose errors echo at most ``_ECHO_LIMIT`` characters of a value."""

    def error(self, message: str) -> NoReturn:
        # argparse echoes arguments as typed after these two prefixes, and a value as its repr
        typed = r"(?<=unrecognized arguments: ).*|(?<=ambiguous option: ).*(?= could match )"
        quoted = r"(['\"])((?:\\.|(?!\1)[^\\])*)\1"  # a repr is cut between its quotes
        cut = lambda m: _cut(m[2], m[1]) if m[1] else _cut(m[0])  # noqa: E731
        super().error(re.sub(f"{typed}|{quoted}", cut, message, flags=re.DOTALL))


def _format_value(value: object) -> str:
    if isinstance(value, float):
        return format(value, ".10g")
    if isinstance(value, list):
        return ",".join(_format_value(v) for v in value)
    return str(value)


def _emit(payload: Mapping[str, object], fmt: str) -> None:
    if fmt == "structured":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for key, value in payload.items():
            print(f"{key}: {_format_value(value)}")


def _figure_csv(matrix: np.ndarray, header: bool = False) -> str:
    """CSV rendering: one row per stage, 6 fixed decimal places.

    With ``header`` a label row (``stage,item_1,...``) is prepended and each
    data row gains a leading 1-based stage number.
    """
    lines = []
    if header:
        lines.append("stage," + ",".join(f"item_{j + 1}" for j in range(matrix.shape[1])))
    # one %-format per row: formatting cell by cell dominates at large n
    row_format = ",".join([f"%.{_CSV_DECIMALS}f"] * matrix.shape[1])
    for i, row in enumerate(matrix):
        cells = row_format % tuple(row.tolist())
        lines.append(f"{i + 1},{cells}" if header else cells)
    return "\n".join(lines) + "\n"


def _figure_svg(matrix: np.ndarray) -> str:
    """SVG heatmap: one square per cell, bigger and darker as the value grows.

    Side length and gray level are both affine in the cell value (side from 0
    to the full cell, fill from white down to black), so zero-probability
    cells vanish into the white background.  Output is deterministic.
    """
    n = len(matrix)
    size = n * _SVG_CELL
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size:g}" height="{size:g}" '
        f'viewBox="0 0 {size:g} {size:g}">',
        f'<rect width="{size:g}" height="{size:g}" fill="white"/>',
    ]
    for i in range(n):
        for j in range(n):
            v = float(matrix[i, j])
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


def _parse_scenario(text: str) -> _Scenario:
    """A scenario document's probabilities and decay law; an error names its field."""
    # deep nesting raises RecursionError; an integer of over 4,300 digits, ValueError
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"scenario document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("scenario document must be a JSON object")
    unknown = set(doc) - {"probabilities", "decay"}
    if unknown:
        raise ValueError(f"unknown scenario field(s): {_cut(', '.join(sorted(unknown)))}")

    if "probabilities" not in doc:
        raise ValueError("scenario is missing the 'probabilities' field")
    probabilities = ProbabilityVector(doc["probabilities"])

    if "decay" not in doc:
        raise ValueError("scenario is missing the 'decay' field")
    raw_decay = doc["decay"]
    if not isinstance(raw_decay, dict):
        raise ValueError("decay must be an object with a 'type' field")
    decay_type = raw_decay.get("type")
    # a membership test, not a lookup: an unhashable type must not raise TypeError
    if decay_type not in ("additive", "multiplicative"):
        raise ValueError(
            f"decay.type must be 'additive' or 'multiplicative', got {_cut(repr(decay_type))}"
        )
    key = _LAW_FIELDS[decay_type]
    extra = set(raw_decay) - {"type", key}
    if extra:
        raise ValueError(f"unknown {decay_type} decay field(s): {_cut(', '.join(sorted(extra)))}")
    if key not in raw_decay:
        raise ValueError(f"{decay_type} decay requires a '{key}' field")
    decay = (AdditiveDecay(raw_decay[key], probabilities.n) if decay_type == "additive"
             else MultiplicativeDecay(raw_decay[key]))
    return probabilities, decay


def _load_scenario(args: argparse.Namespace) -> _Scenario:
    try:
        if args.scenario == "-":
            text = sys.stdin.read()
        else:
            text = Path(args.scenario).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:  # JSON text is UTF-8
        raise ValueError(f"scenario document is not valid JSON: {exc}") from exc
    return _parse_scenario(text)


def _resolve_order(spec: str, probabilities: ProbabilityVector) -> np.ndarray | list[int]:
    """The order ``spec`` names; explicit indices are validated by ``evaluate_order``."""
    if spec == "identity":
        return np.arange(probabilities.n)
    if spec in ("ascending", "descending"):
        return sort_order(probabilities, spec)
    try:
        return [int(token) for token in spec.split(",")]
    except ValueError:
        raise ValueError(
            "--order must be 'identity', 'ascending', 'descending', or "
            f"comma-separated 0-based indices, got {_cut(repr(spec))}"
        ) from None


def _population(args: argparse.Namespace) -> analysis.PopulationModel:
    return analysis.PopulationModel(
        n=args.n, low=args.low, high=args.high, decay_step=args.decay
    )


def _cmd_evaluate(args: argparse.Namespace) -> int:
    probabilities, decay = _load_scenario(args)
    order = _resolve_order(args.order, probabilities)
    metrics = evaluate_order(probabilities, order, decay)
    _emit(
        {
            "order": [int(i) for i in order],
            "stage_probabilities": metrics.stage_probabilities.tolist(),
            "expected_successes": metrics.expected_successes,
            "prob_all_success": metrics.prob_all_success,
        },
        args.format,
    )
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    probabilities, decay = _load_scenario(args)
    payload: dict[str, object] = {"objective": args.objective, "method": args.method}
    if args.method == "brute":
        order, value = brute_force_optimal(probabilities, decay, args.objective)
    else:
        strategy = recommended_order(decay, args.objective)
        payload["strategy"] = strategy
        order = _resolve_order("identity" if strategy == "any" else strategy, probabilities)
        value = evaluate_order(probabilities, order, decay).value(args.objective)
    payload["order"] = [int(i) for i in order]
    payload["value"] = float(value)
    _emit(payload, args.format)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    model = _population(args)
    report = analysis.positivity_report_montecarlo(model, args.trials, args.seed)
    _emit(
        {
            **dataclasses.asdict(model),
            "trials": args.trials,
            "seed": args.seed,
            "method": report.method,
            "weakest_first_estimate": report.prob_weakest_first_positive,
            "weakest_first_std_error": report.weakest_first_std_error,
            "strongest_first_estimate": report.prob_strongest_first_positive,
            "strongest_first_std_error": report.strongest_first_std_error,
        },
        args.format,
    )
    return 0


def _cmd_positivity(args: argparse.Namespace) -> int:
    model = _population(args)
    report = analysis.positivity_report(model)
    _emit(
        {
            **dataclasses.asdict(model),
            "method": report.method,
            "strongest_first": report.prob_strongest_first_positive,
            "weakest_first": report.prob_weakest_first_positive,
        },
        args.format,
    )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    # the figure's size, before it is drawn
    if args.n > _MAX_FIGURE_N:
        raise ValueError(f"--n must be at most {_MAX_FIGURE_N}, got {_cut(str(args.n))}")
    model = _population(args)
    matrix = analysis.generate_figure_matrix(model, args.seed)
    if args.format == "structured":
        _emit(
            {
                **dataclasses.asdict(model),
                "seed": args.seed,
                "initial_probabilities": matrix[0].tolist(),
                "cells": matrix.tolist(),
            },
            args.format,
        )
    elif args.format == "svg":
        sys.stdout.write(_figure_svg(matrix))
    else:
        sys.stdout.write(_figure_csv(matrix, header=args.header))
    return 0


def _add_format_flag(parser: argparse.ArgumentParser, *extra: str,
                     modes: str = "human-readable lines or canonical JSON") -> None:
    parser.add_argument(
        "--format",
        choices=("text", "structured", *extra),
        default="text",
        help=f"output mode: {modes} (default: text)",
    )


def _add_scenario_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        default="-",
        help="path to a scenario file, or '-' for standard input (default: standard input)",
    )


def _add_seed_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="RNG seed, >= 0 (default: 0)")


def _add_population_flags(parser: argparse.ArgumentParser, max_n: int) -> None:
    parser.add_argument(
        "--n",
        type=int,
        default=13,
        help=f"population size, at most {max_n} (default: 13)",
    )
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
    parser = _ArgumentParser(
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
        default="expected",
        help="metric to maximize (default: expected)",
    )
    p_opt.add_argument(
        "--method",
        choices=("brute", "sort"),
        default="brute",
        help=f"exhaustive search (exact, n <= {BRUTE_FORCE_MAX_ITEMS}) or sorted-order strategy "
        "(default: brute)",
    )
    _add_format_flag(p_opt)
    p_opt.set_defaults(func=_cmd_optimize)

    p_sim = sub.add_parser(
        "simulate", help="Monte Carlo positivity probability for both service strategies"
    )
    _add_population_flags(p_sim, analysis.MAX_POPULATION_N)
    p_sim.add_argument(
        "--trials",
        type=int,
        default=100_000,
        help="Monte Carlo trials, with trials * n at most "
        f"{analysis.MAX_SIMULATED_DRAWS} (default: 100000)",
    )
    _add_seed_flag(p_sim)
    _add_format_flag(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_pos = sub.add_parser(
        "positivity", help="exact positivity report (closed forms)"
    )
    _add_population_flags(p_pos, analysis.MAX_POPULATION_N)
    _add_format_flag(p_pos)
    p_pos.set_defaults(func=_cmd_positivity)

    p_fig = sub.add_parser(
        "figure", help="stage-by-item probability matrix as CSV, JSON or an SVG heatmap"
    )
    _add_seed_flag(p_fig)
    _add_population_flags(p_fig, _MAX_FIGURE_N)
    p_fig.add_argument(
        "--header", action="store_true", help="prepend stage/item labels to the CSV"
    )
    _add_format_flag(
        p_fig, "svg", modes="text is CSV, structured canonical JSON, svg an SVG heatmap"
    )
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # its text holds a path as given
        print(f"error: {_cut(str(exc))}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a bug, not bad input
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
