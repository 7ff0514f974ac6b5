"""Positivity analysis for populations with uniform initial probabilities.

Model: ``n`` items whose initial success probabilities are i.i.d.
Uniform(low, high), served one per stage under linear additive decay with
per-stage step ``d``.  The item served at stage ``k`` keeps a strictly
positive probability iff its initial value exceeds the stage threshold
``c_k = d * (k - 1)``.  This module computes the probability that *no* item
is clamped to zero ("positivity") for the strongest-first and weakest-first
strategies, by closed form, by order-statistics quadrature, and by seeded
Monte Carlo.

Weakest-first serves the k-th smallest draw at stage k, so positivity is a
joint constraint on the upper order statistics: only stages whose threshold
exceeds ``low`` can fail, and those constraints involve the largest few
draws.  Writing ``m`` for the number of such active stages, the joint
density of the top ``m`` order statistics ``t_1 <= ... <= t_m`` of ``n``
uniform draws is

    n!/(n-m)! * F(t_1)**(n-m) * prod_j f(t_j)

with ``F``/``f`` the Uniform(low, high) cdf/pdf, and positivity is its
integral over the box-truncated simplex where each ``t_j`` exceeds its
stage threshold.  That integral is evaluated as nested one-dimensional
adaptive quadratures, innermost variable first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import _kernels

__all__ = [
    "PopulationModel",
    "PositivityReport",
    "QuadratureDimensionError",
    "MAX_QUADRATURE_DIMENSION",
    "stage_thresholds",
    "active_thresholds",
    "prob_strongest_first_positive",
    "prob_weakest_first_positive_quadrature",
    "prob_positive_montecarlo",
    "positivity_report",
    "positivity_report_montecarlo",
]

# nested adaptive quadrature beyond 6 axes is slower than simulating
MAX_QUADRATURE_DIMENSION = 6

_QUAD_EPSABS = 1e-9

# trials per Monte Carlo block: 2**18 rows keeps peak memory ~n * 2MB
_MC_CHUNK = 262_144


class QuadratureDimensionError(ValueError):
    """Too many active thresholds for nested quadrature; use Monte Carlo."""


@dataclass(frozen=True)
class PopulationModel:
    """n items, i.i.d. Uniform(low, high) initial probabilities, linear decay step."""

    n: int
    low: float
    high: float
    decay_step: float

    def __post_init__(self) -> None:
        if isinstance(self.n, bool) or not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError(f"n must be a positive integer, got {self.n}")
        if not (0.0 <= self.low < self.high <= 1.0):
            raise ValueError(
                f"bounds must satisfy 0 <= low < high <= 1, got low={self.low} high={self.high}"
            )
        if not self.decay_step >= 0.0:
            raise ValueError(f"decay_step must be >= 0, got {self.decay_step}")


@dataclass(frozen=True)
class PositivityReport:
    """Positivity probabilities for both strategies.

    ``method`` records how the weakest-first value was obtained ("analytic"
    when no threshold is active and both values are exactly 1, "quadrature"
    otherwise, "montecarlo" when simulated); the strongest-first value is
    closed form whenever the method is deterministic.  ``std_error`` is zero
    for deterministic methods and the larger of the two per-strategy binomial
    standard errors for Monte Carlo.
    """

    prob_strongest_first_positive: float
    prob_weakest_first_positive: float
    method: str
    std_error: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.prob_strongest_first_positive <= 1.0):
            raise ValueError("prob_strongest_first_positive must be in [0, 1]")
        if not (0.0 <= self.prob_weakest_first_positive <= 1.0):
            raise ValueError("prob_weakest_first_positive must be in [0, 1]")
        if self.method not in ("analytic", "quadrature", "montecarlo"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.std_error < 0.0:
            raise ValueError("std_error must be >= 0")
        if self.std_error > 0.0 and self.method != "montecarlo":
            raise ValueError("std_error must be 0 for deterministic methods")


def stage_thresholds(model: PopulationModel) -> np.ndarray:
    """Minimum initial probability to stay positive at stage k: ``d * (k - 1)``."""
    return model.decay_step * np.arange(model.n, dtype=np.float64)


def active_thresholds(model: PopulationModel) -> list[tuple[int, float]]:
    """Order-statistic constraints that can actually fail under weakest-first.

    Stage ``k`` serves the k-th smallest draw, which must exceed
    ``d * (k - 1)``; since every draw already exceeds ``low``, only stages
    with threshold strictly above ``low`` constrain anything.  Returns
    ``(rank, threshold)`` pairs with 1-based order-statistic ranks, ascending.
    """
    c = stage_thresholds(model)
    return [(k + 1, float(c[k])) for k in range(model.n) if c[k] > model.low]


def prob_strongest_first_positive(model: PopulationModel) -> float:
    """Closed-form positivity probability for strongest-first service.

    Stage k serves the k-th largest draw, so the smallest draw faces the final
    (largest) threshold; because thresholds are non-decreasing in the stage,
    the minimum clearing that final threshold implies every other constraint.
    Hence the probability is ``P(min > d*(n-1)) = q**n`` with
    ``q = P(single draw > d*(n-1))``.
    """
    c = stage_thresholds(model)
    # non-decreasing thresholds are what makes the min-only criterion exact
    assert (np.diff(c) >= 0.0).all()
    q = (model.high - float(c[-1])) / (model.high - model.low)
    q = min(max(q, 0.0), 1.0)
    return q**model.n


def prob_weakest_first_positive_quadrature(model: PopulationModel) -> float:
    """Positivity probability for weakest-first service via nested quadrature.

    Integrates the joint density of the top-m order statistics over the
    region where each active order statistic exceeds its stage threshold
    (each variable bounded above by the next order statistic).  Deterministic;
    per-axis absolute tolerance 1e-9.  Raises QuadratureDimensionError when
    more than MAX_QUADRATURE_DIMENSION thresholds are active.
    """
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


def prob_positive_montecarlo(
    model: PopulationModel, strategy: str, trials: int, seed: int
) -> tuple[float, float]:
    """Simulated positivity probability and its binomial standard error.

    Each trial draws ``n`` values i.i.d. Uniform(low, high), serves them
    ascending or descending per ``strategy``, applies the per-stage decay with
    clamping, and counts the trial a success when every at-processing-time
    probability stays strictly positive.  Bit-reproducible for a given
    ``(model, strategy, trials, seed)``: draws come from a PCG64 generator
    seeded explicitly, consumed in a fixed order regardless of chunking.
    """
    if strategy not in ("ascending", "descending"):
        raise ValueError(f"strategy must be 'ascending' or 'descending', got {strategy!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    thresholds = stage_thresholds(model)
    descending = strategy == "descending"
    rng = np.random.default_rng(seed)
    hits = 0
    remaining = trials
    while remaining > 0:
        chunk = min(remaining, _MC_CHUNK)
        draws = rng.uniform(model.low, model.high, size=(chunk, model.n))
        hits += _kernels.count_positive_trials(draws, thresholds, descending)
        remaining -= chunk
    estimate = hits / trials
    std_error = math.sqrt(estimate * (1.0 - estimate) / trials)
    return estimate, std_error


def positivity_report(model: PopulationModel) -> PositivityReport:
    """Deterministic report: closed-form strongest-first, quadrature weakest-first."""
    strongest = prob_strongest_first_positive(model)
    if not active_thresholds(model):
        return PositivityReport(strongest, 1.0, method="analytic")
    weakest = prob_weakest_first_positive_quadrature(model)
    return PositivityReport(strongest, weakest, method="quadrature")


def positivity_report_montecarlo(
    model: PopulationModel, trials: int, seed: int
) -> PositivityReport:
    """Simulated report; both strategies reuse the same seed (paired draws)."""
    est_w, se_w = prob_positive_montecarlo(model, "ascending", trials, seed)
    est_s, se_s = prob_positive_montecarlo(model, "descending", trials, seed)
    return PositivityReport(est_s, est_w, method="montecarlo", std_error=max(se_s, se_w))
