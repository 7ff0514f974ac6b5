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
``positivity_report`` computes it exactly for any ``m`` (in
``_weakest_first``) by the all-positive recursion of Noe (1972, *Ann.
Math. Statist.* 43(1):58-64) in the Poisson form of Moscovich & Nadler
(2017, *Stat. Probab. Lett.* 123:177-182).

The Monte Carlo counter, like the closed form and the recursion, relies on
the thresholds never decreasing.  It sorts each block of trials once,
serves it ascending from the first stage at or above its smallest draw,
and serves it descending by one column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decay import _check_positive_int, _linear_drops, _satisfies

__all__ = [
    "PopulationModel",
    "PositivityReport",
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
        _check_positive_int(self.n, "n")
        if not _satisfies(lambda low, high: 0.0 <= low < high <= 1.0, self.low, self.high):
            raise ValueError(
                f"bounds must satisfy 0 <= low < high <= 1, got low={self.low} high={self.high}"
            )
        if not _satisfies(lambda step: 0.0 <= step < math.inf, self.decay_step):
            raise ValueError(f"decay_step must be a finite number >= 0, got {self.decay_step}")


@dataclass(frozen=True)
class PositivityReport:
    """Positivity probabilities for both strategies.

    ``method`` records how the weakest-first value was obtained ("analytic"
    when no threshold is active and both values are exactly 1, "recursion"
    otherwise, "montecarlo" when simulated); the strongest-first value is
    closed form whenever the method is deterministic.  Each strategy's
    standard error is zero for deterministic methods and its binomial
    standard error for Monte Carlo.

    A record, checked by nothing: its two producers guarantee these
    invariants, and ``TestPositivityReport`` and ``TestMonteCarlo`` in
    ``tests/test_analysis.py`` test them as properties of each producer.
    """

    prob_strongest_first_positive: float
    prob_weakest_first_positive: float
    method: str
    strongest_first_std_error: float = 0.0
    weakest_first_std_error: float = 0.0


def _strongest_first(model: PopulationModel, thresholds: np.ndarray) -> float:
    """Closed-form positivity probability for strongest-first service.

    Stage k serves the k-th largest draw, so the smallest draw faces the final
    (largest) threshold; because thresholds are non-decreasing in the stage,
    the minimum clearing that final threshold implies every other constraint.
    Hence the probability is ``P(min > d*(n-1)) = q**n`` with
    ``q = P(single draw > d*(n-1))``.
    """
    q = (model.high - float(thresholds[-1])) / (model.high - model.low)
    q = min(max(q, 0.0), 1.0)
    return q**model.n


def _weakest_first(model: PopulationModel, thresholds: np.ndarray, first: int) -> float:
    """Exact positivity probability for weakest-first service, for any n.

    ``thresholds[first:]`` are the active thresholds, those of the 1-based
    ranks ``first + 1..n``.

    ``U_(k) > a_k`` holds iff fewer than ``k`` of the ``n`` mapped draws lie
    at or below ``a_k``, so the recursion walks the active boundaries in
    order carrying the distribution of ``c``, the count at or below the
    previous boundary, and drops every count ``>= k`` at rank ``k``.  For
    ``n`` uniform points the ``n - c`` points above ``a_prev`` fall below
    ``a_k`` as Binomial(n - c, (a_k - a_prev) / (1 - a_prev)).  The same
    step is computed for a Poisson(n) number of points, where the count in
    each slab between boundaries is Poisson(n * (a_k - a_prev)) whatever
    ``c`` is, so each step is one convolution; conditioning on exactly
    ``n`` points at the end recovers the uniform result.  The log-pmfs and
    the final step cancel terms of size ``k * log(k)``, so the error grows
    with n: tier-1 holds it within 5e-14 relative of Steck's determinant at
    n = 40 and 120, but at n = 150 one model is off by 1.9e-13 (ROADMAP
    item 5 has the wider measurements).  Terms below ``_FLUSH_BELOW`` are
    dropped, which moves the result by less than 1e-140.

    Cost: at most about n**2 * min(n / 3, 130) multiply-adds, because each
    Poisson pmf is cut where it falls below ``_FLUSH_BELOW``.  Best of 3 on a
    shared 2-vCPU x86-64 host: about 0.2 ms on the reference model, and with
    every stage active 8 ms at n = 200, 0.12 s at n = 2000 and 1.9 s at n = 10**4.
    """
    n = model.n
    with np.errstate(over="ignore"):  # a huge threshold clips to 1 all the same
        bounds = np.clip((thresholds[first:] - model.low) / (model.high - model.low), 0.0, 1.0)
    if bounds[-1] >= 1.0:
        # every draw lies at or below the last boundary, so that rank fails
        return 0.0
    log_factorial = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])

    def log_poisson(width: float, size: int) -> np.ndarray:
        """Log pmf at 0..size-1 of the Poisson(n) count in a slab of ``width``."""
        # width > 0: active bounds exceed 0, increase strictly and stay below 1
        mean = n * width
        return np.arange(size) * math.log(mean) - mean - log_factorial[:size]

    def flushed(values: np.ndarray) -> np.ndarray:
        """``values`` with entries below ``_FLUSH_BELOW`` zeroed and trailing zeros cut."""
        values = np.where(values >= _FLUSH_BELOW, values, 0.0)
        return values[: np.flatnonzero(values).max(initial=0) + 1]

    weights = np.ones(1)  # P(c points at or below the previous boundary, no rank failed)
    previous = 0.0
    for rank, bound in enumerate(bounds, first + 1):
        pmf = flushed(np.exp(log_poisson(bound - previous, rank)))
        weights = flushed(np.convolve(weights, pmf)[:rank])
        previous = bound
    # the other n - c points lie above the last boundary; dividing by
    # P(Poisson(n) = n) conditions on exactly n points in all
    above = log_poisson(1.0 - previous, n + 1)[::-1][: weights.size]
    value = weights @ np.exp(above - (n * math.log(n) - n - log_factorial[n]))
    return float(min(max(value, 0.0), 1.0))


def positivity_report(model: PopulationModel) -> PositivityReport:
    """Deterministic report: closed-form strongest-first, exact recursion weakest-first.

    The method is "analytic" when no stage threshold exceeds ``low``: then
    no stage can fail, and both values are exactly 1.  A threshold too large
    for a float is ``inf``, one that no draw clears.
    """
    c = _linear_drops(model.decay_step, model.n)
    # non-decreasing thresholds make the strongest-first criterion exact, and
    # make the stages that can fail a suffix, found by one binary search
    first = int(np.searchsorted(c, model.low, side="right"))
    strongest = _strongest_first(model, c)
    if first == model.n:
        return PositivityReport(strongest, 1.0, method="analytic")
    return PositivityReport(strongest, _weakest_first(model, c, first), method="recursion")


def _seeded_rng(seed) -> np.random.Generator:
    """PCG64 generator for ``seed``, a non-negative Python or numpy int and not a bool."""
    if isinstance(seed, bool) or not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(seed)


def _count_positive_trials(draws: np.ndarray, thresholds: np.ndarray) -> tuple[int, int]:
    """Count rows whose sorted values strictly exceed per-stage thresholds.

    Each row is sorted once and served both ascending and descending; stage
    ``k`` compares the k-th served value against ``thresholds[k]``, and a row
    counts only if every comparison is strictly greater.  Returns the counts
    for both orders as ``(ascending, descending)``.

    Ascending service compares only the stages from the first whose
    threshold is at or above the smallest draw, found by binary search: a
    stage before it passes in every row.  Descending service serves each
    row's smallest value last, against the largest threshold, so that one
    comparison decides the row.  An infinite threshold fails every row.

    Precondition, not checked here: ``draws`` is a float64 array of shape
    ``(rows, n)`` and ``thresholds`` a non-decreasing one of shape ``(n,)``,
    neither holding NaN, as ``positivity_report_montecarlo`` passes them.
    """
    s = np.sort(draws, axis=1)
    first = int(np.searchsorted(thresholds, s[:, :1].min(initial=np.inf)))
    # np.all folds a short row slowly, so lay the comparison out stage by stage
    ascending = np.greater(s[:, first:], thresholds[first:], order="F").all(axis=1)
    # one column: empty for zero stages, which every row then clears
    descending = (s[:, :1] > thresholds[-1:]).all(axis=1)
    return int(ascending.sum()), int(descending.sum())


def positivity_report_montecarlo(
    model: PopulationModel, trials: int, seed: int
) -> PositivityReport:
    """Simulated report, with each strategy's binomial standard error.

    Both strategies are counted on the same ``trials`` draws of ``n``
    values: each block of draws is drawn and sorted once and counted for
    both orders.  A block holds at most ``_MC_ELEMENTS`` draws (at least
    one row), so memory stays bounded whatever ``n`` and ``trials`` are.
    Bit-reproducible for a given ``(model, trials, seed)``: draws come from
    a PCG64 generator seeded explicitly, consumed in a fixed order
    regardless of blocking.  ``trials`` must be a positive integer and
    ``seed`` a non-negative one; neither may be a bool.
    """
    _check_positive_int(trials, "trials")
    rng = _seeded_rng(seed)
    thresholds = _linear_drops(model.decay_step, model.n)
    ascending = descending = 0
    block = max(1, _MC_ELEMENTS // model.n)
    remaining = trials
    while remaining > 0:
        rows = min(remaining, block)
        draws = rng.uniform(model.low, model.high, size=(rows, model.n))
        up, down = _count_positive_trials(draws, thresholds)
        ascending += up
        descending += down
        remaining -= rows

    def estimate(hits: int) -> tuple[float, float]:
        p = hits / trials
        return p, math.sqrt(p * (1.0 - p) / trials)

    # ascending service is weakest first, descending strongest first
    (est_w, se_w), (est_s, se_s) = estimate(ascending), estimate(descending)
    return PositivityReport(est_s, est_w, "montecarlo", se_s, se_w)
