"""Stage-by-item probability tables of a random population, as CSV or SVG.

A figure draws a population's initial probabilities (see
``analysis.PopulationModel``), sorts them ascending and tabulates the value
each item would have at each stage under the model's linear decay step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import PopulationModel, _seeded_rng
from .decay import AdditiveDecay, _decayed
from .distribution import _frozen

__all__ = ["FigureMatrix", "generate_figure_matrix", "figure_csv", "figure_svg"]

_CSV_DECIMALS = 6

# one grid cell of the SVG heatmap, in user units
_SVG_CELL = 24.0


@dataclass(frozen=True, eq=False)
class FigureMatrix:
    """Stage-by-item table of at-processing-time probabilities.

    ``cells[i, j]`` is the probability that item ``j`` (0-based, items sorted
    ascending by initial probability) succeeds if served at stage ``i + 1``,
    i.e. exactly ``(P0(j) - decay_step * i)^+``.  A record: it freezes
    float64 copies and checks only the step, through the decay law.
    Columns are non-increasing down the stages, and rows ascend when the
    initial probabilities do, as ``generate_figure_matrix`` sorts them.
    """

    initial_probabilities: np.ndarray
    decay_step: float
    cells: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        p0 = _frozen(self.initial_probabilities)
        stages = np.arange(p0.size)[:, None]
        cells = _decayed(p0[None, :], stages, AdditiveDecay(self.decay_step, p0.size))
        object.__setattr__(self, "initial_probabilities", p0)
        object.__setattr__(self, "cells", _frozen(cells))

    @property
    def n(self) -> int:
        return self.initial_probabilities.size


def generate_figure_matrix(model: PopulationModel, seed: int) -> FigureMatrix:
    """Draw the model's n initial probabilities and tabulate decayed values.

    The draw is sorted ascending, so the weakest item sits in column 0, and
    each draw lies in [low, high].  Deterministic for a given seed, which
    must be a non-negative integer and not a bool.
    """
    rng = _seeded_rng(seed)
    draws = np.sort(rng.uniform(model.low, model.high, size=model.n))
    return FigureMatrix(draws, model.decay_step)


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
