"""Positivity analysis for populations with uniform initial probabilities.

Model: ``n`` items whose initial success probabilities are i.i.d.
Uniform(low, high), served one per stage under linear additive decay with
per-stage step ``d``.  The item served at stage ``k`` keeps a strictly
positive probability iff its initial value exceeds the stage threshold
``c_k = d * (k - 1)``.  This module computes the probability that *no* item
is clamped to zero ("positivity") for the strongest-first and weakest-first
strategies: by closed form (strongest-first), by an exact recursion over
order statistics (weakest-first), and by seeded Monte Carlo (both).

Weakest-first serves the k-th smallest draw at stage k, so positivity is a
lower-boundary probability for uniform order statistics: with the draws
mapped to Uniform(0, 1), ``U_(k) > a_k`` must hold for every active rank
``k``, where ``a_k = clip((c_k - low) / (high - low), 0, 1)``.  Only stages
whose threshold exceeds ``low`` can fail; ``m`` denotes their number.
``prob_weakest_first_positive`` computes it exactly for any ``m`` by the
all-positive recursion of Noe (1972, *Ann. Math. Statist.* 43(1):58-64) in
the Poisson form of Moscovich & Nadler (2017, *Stat. Probab. Lett.*
123:177-182).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels

__all__ = [
    "PopulationModel",
    "PositivityReport",
    "stage_thresholds",
    "active_thresholds",
    "prob_strongest_first_positive",
    "prob_weakest_first_positive",
    "prob_positive_montecarlo",
    "positivity_report",
    "positivity_report_montecarlo",
]

# recursion terms below this are dropped: the product of two kept terms is
# a normal float (subnormal arithmetic costs many times a normal one), and
# the result moves by less than 1e-140 for n up to 10**4
_FLUSH_BELOW = 2.0**-511

# draws per Monte Carlo block: 2**16 float64 values (512 kB) stay in cache;
# the seeded stream does not depend on the block size
_MC_ELEMENTS = 65_536


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
        if not (math.isfinite(self.decay_step) and self.decay_step >= 0.0):
            raise ValueError(f"decay_step must be a finite number >= 0, got {self.decay_step}")


@dataclass(frozen=True)
class PositivityReport:
    """Positivity probabilities for both strategies.

    ``method`` records how the weakest-first value was obtained ("analytic"
    when no threshold is active and both values are exactly 1, "recursion"
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
        if self.method not in ("analytic", "recursion", "montecarlo"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.std_error < 0.0:
            raise ValueError("std_error must be >= 0")
        if self.std_error > 0.0 and self.method != "montecarlo":
            raise ValueError("std_error must be 0 for deterministic methods")


def stage_thresholds(model: PopulationModel) -> np.ndarray:
    """Minimum initial probability to stay positive at stage k: ``d * (k - 1)``.

    A product too large for a float is ``inf``, a threshold no draw clears.
    """
    with np.errstate(over="ignore"):
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
    assert (c[1:] >= c[:-1]).all()
    q = (model.high - float(c[-1])) / (model.high - model.low)
    q = min(max(q, 0.0), 1.0)
    return q**model.n


def prob_weakest_first_positive(model: PopulationModel) -> float:
    """Exact positivity probability for weakest-first service, for any n.

    ``U_(k) > a_k`` holds iff fewer than ``k`` of the ``n`` mapped draws lie
    at or below ``a_k``, so the recursion walks the active boundaries in
    order carrying the distribution of ``c``, the count at or below the
    previous boundary, and drops every count ``>= k`` at rank ``k``.  For
    ``n`` uniform points the ``n - c`` points above ``a_prev`` fall below
    ``a_k`` as Binomial(n - c, (a_k - a_prev) / (1 - a_prev)).  The same
    step is computed for a Poisson(n) number of points, where the count in
    each slab between boundaries is Poisson(n * (a_k - a_prev)) whatever
    ``c`` is, so each step is one convolution; conditioning on exactly
    ``n`` points at the end recovers the uniform result.  Every term is a
    non-negative product, so nothing cancels: the result agrees with the
    same recursion in 40-digit arithmetic within 5e-14 relative for n up to
    200.  Terms below ``_FLUSH_BELOW`` are dropped, which moves the
    result by less than 1e-140.

    Cost: at most about n**2 * min(n / 3, 130) multiply-adds, because each
    Poisson pmf is cut where it falls below ``_FLUSH_BELOW``.  On one
    x86-64 core: about 0.15 ms on the reference model, and with every
    stage active 5 ms at n = 200, 0.14 s at n = 2000 and 4 s at n = 10**4.
    """
    active = active_thresholds(model)
    if not active:
        return 1.0
    n = model.n
    thresholds = np.array([t for _, t in active])
    with np.errstate(over="ignore"):  # a huge threshold clips to 1 all the same
        bounds = np.clip((thresholds - model.low) / (model.high - model.low), 0.0, 1.0)
    if bounds[-1] >= 1.0:
        # every draw lies at or below the last boundary, so that rank fails
        return 0.0
    log_factorial = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])

    def log_poisson(width: float, size: int) -> np.ndarray:
        """Log pmf at 0..size-1 of the Poisson(n) count in a slab of ``width``."""
        if width == 0.0:
            return np.where(np.arange(size) == 0, 0.0, -np.inf)
        mean = n * width
        return np.arange(size) * math.log(mean) - mean - log_factorial[:size]

    def flushed(values: np.ndarray) -> np.ndarray:
        """``values`` with entries below ``_FLUSH_BELOW`` zeroed and trailing zeros cut."""
        values = np.where(values >= _FLUSH_BELOW, values, 0.0)
        return values[: np.flatnonzero(values).max(initial=0) + 1]

    weights = np.ones(1)  # P(c points at or below the previous boundary, no rank failed)
    previous = 0.0
    for (rank, _), bound in zip(active, bounds):
        pmf = flushed(np.exp(log_poisson(bound - previous, rank)))
        weights = flushed(np.convolve(weights, pmf)[:rank])
        previous = bound
    # the other n - c points lie above the last boundary; dividing by
    # P(Poisson(n) = n) conditions on exactly n points in all
    above = log_poisson(1.0 - previous, n + 1)[::-1][: weights.size]
    value = weights @ np.exp(above - (n * math.log(n) - n - log_factorial[n]))
    return float(min(max(value, 0.0), 1.0))


def _simulate(
    model: PopulationModel, trials: int, seed: int
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Monte Carlo ``(estimate, std_error)`` for ascending, then descending service.

    Each block of draws is drawn and sorted once and counted for both
    orders, so the two estimates are paired on one seeded stream.  A block
    holds at most ``_MC_ELEMENTS`` draws (at least one row), so memory stays
    bounded whatever ``n`` and ``trials`` are.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    thresholds = stage_thresholds(model)
    rng = np.random.default_rng(seed)
    ascending = descending = 0
    block = max(1, _MC_ELEMENTS // model.n)
    remaining = trials
    while remaining > 0:
        rows = min(remaining, block)
        draws = rng.uniform(model.low, model.high, size=(rows, model.n))
        up, down = _kernels.count_positive_trials(draws, thresholds)
        ascending += up
        descending += down
        remaining -= rows

    def estimate(hits: int) -> tuple[float, float]:
        p = hits / trials
        return p, math.sqrt(p * (1.0 - p) / trials)

    return estimate(ascending), estimate(descending)


def prob_positive_montecarlo(
    model: PopulationModel, strategy: str, trials: int, seed: int
) -> tuple[float, float]:
    """Simulated positivity probability and its binomial standard error.

    Each trial draws ``n`` values i.i.d. Uniform(low, high), serves them
    ascending or descending per ``strategy``, applies the per-stage decay with
    clamping, and counts the trial a success when every at-processing-time
    probability stays strictly positive.  Bit-reproducible for a given
    ``(model, strategy, trials, seed)``: draws come from a PCG64 generator
    seeded explicitly, consumed in a fixed order regardless of blocking.
    """
    if strategy not in ("ascending", "descending"):
        raise ValueError(f"strategy must be 'ascending' or 'descending', got {strategy!r}")
    weakest, strongest = _simulate(model, trials, seed)
    return strongest if strategy == "descending" else weakest


def positivity_report(model: PopulationModel) -> PositivityReport:
    """Deterministic report: closed-form strongest-first, exact recursion weakest-first."""
    strongest = prob_strongest_first_positive(model)
    if not active_thresholds(model):
        return PositivityReport(strongest, 1.0, method="analytic")
    weakest = prob_weakest_first_positive(model)
    return PositivityReport(strongest, weakest, method="recursion")


def positivity_report_montecarlo(
    model: PopulationModel, trials: int, seed: int
) -> PositivityReport:
    """Simulated report; both strategies are counted on the same draws."""
    (est_w, se_w), (est_s, se_s) = _simulate(model, trials, seed)
    return PositivityReport(est_s, est_w, method="montecarlo", std_error=max(se_s, se_w))
