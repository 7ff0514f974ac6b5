"""Slow, independent oracles for the weakest-first positivity probability.

Neither is used by the package at run time; the tests compare
``decaysched.prob_weakest_first_positive`` against them.

``prob_weakest_first_positive_quadrature`` integrates the joint density of
the top ``m`` order statistics ``t_1 <= ... <= t_m`` of ``n`` uniform draws,

    n!/(n-m)! * F(t_1)**(n-m) * prod_j f(t_j)

with ``F``/``f`` the Uniform(low, high) cdf/pdf, over the box-truncated
simplex where each ``t_j`` exceeds its stage threshold, as nested
one-dimensional adaptive quadratures, innermost variable first.

``prob_weakest_first_positive_exact`` runs Noe's recursion in its binomial
form in rational arithmetic, on the same float boundaries that the package
uses, so it differs from the package's value only by that value's rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from decaysched import PopulationModel, active_thresholds

# nested adaptive quadrature beyond 6 axes is slower than simulating
MAX_QUADRATURE_DIMENSION = 6

_QUAD_EPSABS = 1e-9


class QuadratureDimensionError(ValueError):
    """Too many active thresholds for the nested-quadrature oracle."""


def prob_weakest_first_positive_quadrature(model: PopulationModel) -> float:
    """Positivity probability for weakest-first service via nested quadrature.

    Integrates the joint density of the top-m order statistics over the
    region where each active order statistic exceeds its stage threshold
    (each variable bounded above by the next order statistic).  Deterministic;
    per-axis absolute tolerance 1e-9.  Raises QuadratureDimensionError when
    more than MAX_QUADRATURE_DIMENSION thresholds are active.
    """
    from scipy.integrate import quad

    active = active_thresholds(model)
    m = len(active)
    if m == 0:
        return 1.0
    if m > MAX_QUADRATURE_DIMENSION:
        raise QuadratureDimensionError(
            f"{m} active thresholds exceed the {MAX_QUADRATURE_DIMENSION}-axis quadrature "
            f"limit; use prob_positive_montecarlo instead"
        )
    thresholds = [t for _, t in active]
    n, a, b = model.n, model.low, model.high
    if thresholds[-1] >= b:
        return 0.0
    width = b - a
    # full normalizing constant lives in the innermost factor so each axis's
    # absolute tolerance is meaningful at the scale of the final result
    lead = math.factorial(n) / math.factorial(n - m) / width**m

    def innermost(t: float) -> float:
        return lead * ((t - a) / width) ** (n - m)

    def layer(j: int, upper: float) -> float:
        lower = thresholds[j]
        if upper <= lower:
            return 0.0
        f = innermost if j == 0 else (lambda t: layer(j - 1, t))
        value, _ = quad(f, lower, upper, epsabs=_QUAD_EPSABS, epsrel=0.0, limit=200)
        return value

    return float(min(max(layer(m - 1, b), 0.0), 1.0))


def prob_weakest_first_positive_exact(model: PopulationModel) -> Fraction:
    """Weakest-first positivity probability, exactly, for the float boundaries.

    With the draws mapped to Uniform(0, 1), rank ``k`` fails when ``k`` or
    more of the ``n`` points lie at or below its boundary ``a_k``.  Walking
    the active boundaries in order, of the ``n - c`` points above the
    previous boundary ``a``, Binomial(n - c, (a_k - a) / (1 - a)) fall at or
    below ``a_k``.  The boundaries are the package's floats, converted
    exactly; every other step is rational.
    """
    active = active_thresholds(model)
    if not active:
        return Fraction(1)
    n = model.n
    thresholds = np.array([t for _, t in active])
    with np.errstate(over="ignore"):
        bounds = np.clip((thresholds - model.low) / (model.high - model.low), 0.0, 1.0)
    if bounds[-1] >= 1.0:
        return Fraction(0)
    weights = [Fraction(1)]  # weights[c]: c points at or below the previous boundary
    previous = Fraction(0)
    for (rank, _), bound in zip(active, bounds):
        bound = Fraction(float(bound))
        p = (bound - previous) / (1 - previous)
        below = [p**j for j in range(rank)]
        above = [(1 - p) ** j for j in range(n + 1)]
        step = [Fraction(0)] * rank
        for c, weight in enumerate(weights):
            for j in range(rank - c):  # c + j < rank: rank k has not failed
                step[c + j] += weight * math.comb(n - c, j) * below[j] * above[n - c - j]
        weights = step
        previous = bound
    return sum(weights, Fraction(0))
