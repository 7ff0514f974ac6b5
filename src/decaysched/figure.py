"""Stage-by-item probability tables of a random population, as CSV or SVG.

A figure draws a population's initial probabilities (see
``analysis.PopulationModel``), sorts them ascending and tabulates the value
each item would have at each stage under the model's linear decay step.
"""

from __future__ import annotations

import numpy as np

from .analysis import PopulationModel, _seeded_rng
from .decay import AdditiveDecay
from .scheduler import stage_item_matrix

__all__ = ["generate_figure_matrix", "figure_csv", "figure_svg"]

_CSV_DECIMALS = 6

# one grid cell of the SVG heatmap, in user units
_SVG_CELL = 24.0


def generate_figure_matrix(model: PopulationModel, seed: int) -> np.ndarray:
    """Draw the model's n initial probabilities and tabulate decayed values.

    Returns the read-only float64 ``stage_item_matrix`` of the draws sorted
    ascending: entry ``(i, j)`` is ``(P0(j) - decay_step * i)^+``, so row 0
    holds the draws themselves, the weakest item sits in column 0, rows
    ascend and columns fade down the stages.  Each draw lies in [low,
    high].  Deterministic for a given seed, which must be a non-negative
    integer and not a bool.
    """
    rng = _seeded_rng(seed)
    draws = np.sort(rng.uniform(model.low, model.high, size=model.n))
    return stage_item_matrix(draws, AdditiveDecay(model.decay_step, model.n))


def figure_csv(matrix: np.ndarray, header: bool = False) -> str:
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


def figure_svg(matrix: np.ndarray) -> str:
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
