"""Positivity analysis for populations with uniform initial probabilities.

Model: ``n`` items whose initial success probabilities are i.i.d.
Uniform(low, high), served one per stage under linear additive decay with
per-stage step ``d``.  The item served at stage ``k`` keeps a strictly
positive probability iff its initial value exceeds the stage threshold
``c_k = d * (k - 1)``.  This module computes the probability that *no* item
is clamped to zero ("positivity") for the strongest-first and weakest-first
strategies: by closed forms (both) and by seeded Monte Carlo (both).  It
also draws a seeded population and tabulates its decay stage by stage.

Weakest-first serves the k-th smallest draw at stage k, so positivity is a
lower-boundary probability for uniform order statistics: with the draws
mapped to Uniform(0, 1), ``U_(k) > a_k`` must hold for every active rank
``k``, where ``a_k = clip((c_k - low) / (high - low), 0, 1)``.  Only stages
whose threshold exceeds ``low`` can fail.  The active boundaries lie on one
line, so ``positivity_report`` computes this probability (in
``_weakest_first``) as the line-boundary sum of Birnbaum & Tingey (1951,
*Ann. Math. Statist.* 22:592-596), which follows from Daniels' ballot-type
lemma (1945, *Proc. R. Soc. A* 183:405-435): O(n) positive terms, each a
binomial probability in the saddle-point form of Loader (2000, "Fast and
accurate computation of binomial probabilities").

The Monte Carlo counter, like both closed forms, relies on the thresholds
never decreasing.  It sorts each block of trials once, serves it ascending
from the first stage at or above its smallest draw, and serves it
descending by one column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decay import AdditiveDecay, _echo, _integer, _linear_drops, _real
from .scheduler import stage_item_matrix

__all__ = [
    "MAX_POPULATION_N",
    "MAX_SIMULATED_DRAWS",
    "PopulationModel",
    "PositivityReport",
    "generate_figure_matrix",
    "positivity_report",
    "positivity_report_montecarlo",
]

# stirlerr(k) for k = 0..15 (Loader 2000); _stirlerr takes its series above
_STIRLERR = np.array([
    0.0,
    0.0810614667953272582196702,
    0.0413406959554092940938221,
    0.02767792568499833914878929,
    0.02079067210376509311152277,
    0.01664469118982119216319487,
    0.01387612882307074799874573,
    0.01189670994589177009505572,
    0.010411265261972096497478567,
    0.009255462182712732917728637,
    0.008330563433362871256469318,
    0.007573675487951840794972024,
    0.006942840107209529865664152,
    0.006408994188004207068439631,
    0.005951370112758847735624416,
    0.005554733551962801371038690,
])

# largest n of a population: it bounds the draws of each simulated trial and
# the range the tests cover, not positivity's cost (about 1.5 ms at 10**4)
MAX_POPULATION_N = 10_000

# largest trials * n of one simulation: about 15 s at 12-16 ns per draw
MAX_SIMULATED_DRAWS = 10**9

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
        n = _integer(self.n, "n", 1)
        if n > MAX_POPULATION_N:
            raise ValueError(f"n must be at most {MAX_POPULATION_N}, got {_echo(n)}")
        low, high, step = _real(self.low), _real(self.high), _real(self.decay_step)
        if not 0.0 <= low < high <= 1.0:
            raise ValueError(
                "bounds must satisfy 0 <= low < high <= 1, "
                f"got low={_echo(self.low)} high={_echo(self.high)}"
            )
        if not 0.0 <= step < math.inf:
            raise ValueError(
                f"decay_step must be a finite number >= 0, got {_echo(self.decay_step)}"
            )
        for name, value in (("n", n), ("low", low), ("high", high), ("decay_step", step)):
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class PositivityReport:
    """Positivity probabilities for both strategies.

    ``method`` records how both values were obtained: "analytic" for the
    closed forms of ``positivity_report``, "montecarlo" for the simulation
    of ``positivity_report_montecarlo``.  Each strategy's
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


def _stirlerr(k: int | np.ndarray) -> np.ndarray:
    """``log(k!) - log(sqrt(2 pi k) (k / e)**k)`` for integers ``k >= 1`` (Loader 2000).

    The table for ``k <= 15``, the Stirling series in ``1 / k`` above it.
    """
    x = np.asarray(k, dtype=np.float64)
    xx = x * x
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / xx) / xx) / xx) / xx) / x
    return np.where(x <= 15, _STIRLERR[np.minimum(k, 15)], series)


def _bd0(x: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """``x log(x / mean) + mean - x`` for ``x, mean > 0``, without cancelling near ``x = mean``.

    Within 10% of the mean, Loader's (2000) series ``(x - mean) v + 2 x
    (v**3 / 3 + v**5 / 5 + ...)`` with ``v = (x - mean) / (x + mean)``; there
    ``|v| < 0.1``, so eight terms leave a relative error below 1e-17.
    """
    v = (x - mean) / (x + mean)
    odd = 0.0  # v**2 / 3 + v**4 / 5 + ... + v**16 / 17, by Horner's rule
    for j in range(8, 0, -1):
        odd = (odd + 1.0 / (2 * j + 1)) * (v * v)
    near = (x - mean) * v + 2.0 * x * v * odd
    with np.errstate(over="ignore"):  # x / mean may overflow: the term is then 0
        far = x * np.log(x / mean) + mean - x
    return np.where(np.abs(x - mean) < 0.1 * (x + mean), near, far)


def _weakest_first(model: PopulationModel, thresholds: np.ndarray, first: int) -> float:
    """Exact positivity probability for weakest-first service, for any n.

    ``thresholds[first:]`` are the active thresholds, those of the 1-based
    ranks ``first + 1..n``, and their mapped boundaries ``a_k`` lie on one
    line.  Split the complement by the last rank ``J`` that fails: then
    exactly ``J`` draws lie at or below ``a_J``, and the other ``n - J``,
    uniform above it, clear the rest of the line with probability ``(1 -
    a_n) / (1 - a_J)`` by Daniels' (1945) lemma.  So, as in Birnbaum &
    Tingey (1951),

        P = 1 - a_n**n - (1 - a_n) * sum_{active j < n} C(n, j) a_j**j (1 - a_j)**(n-j-1)

    Every term is positive.  Each is computed as the binomial pmf
    ``C(n, j) a_j**j (1 - a_j)**(n-j)`` in Loader's (2000) saddle-point
    form, then divided by ``1 - a_j``; logs of factorials would cancel
    terms of size ``j * log(j)``.  With no active rank the sum is empty and
    P is exactly 1; with ``a_n = 1`` it is 0.

    Error, with ``u = 2**-53``: the terms and their sum carry a relative
    error of about ``gamma_n``, and ``a_n**n`` and the terms times ``1 -
    a_n`` each come to at most ``1 - P``.  So the result lies within
    ``(gamma_n + 16 u) (1 - P) + 4 u`` of the exact probability for the
    float boundaries, which lie on the line up to their rounding; the tests
    check it against an exact evaluation of the sum and against Steck's
    determinant.  The bound is absolute: P is computed as ``1 - (...)``, so
    its relative error can reach about ``n u / P`` when P is small.

    Cost: O(n), with no loop over the ranks in Python.  Best of 3 on a
    shared 2-vCPU x86-64 host, with every stage active: about 0.12 ms at
    n = 200, 0.25 ms at n = 2000 and 1.4 ms at n = 10**4.
    """
    n = model.n
    with np.errstate(over="ignore"):  # a huge threshold clips to 1 all the same
        bounds = np.clip((thresholds - model.low) / (model.high - model.low), 0.0, 1.0)
    last = float(bounds[-1])
    if last >= 1.0:
        # every draw lies at or below the last boundary, so that rank fails
        return 0.0
    # the active ranks below n: their boundaries lie in (0, 1)
    a = bounds[first:-1]
    j = np.arange(first + 1, n)
    log_pmf = _stirlerr(n) - _stirlerr(j) - _stirlerr(n - j)
    log_pmf -= _bd0(j, n * a) + _bd0(n - j, n * (1.0 - a))
    terms = np.exp(log_pmf) / np.sqrt(2.0 * math.pi * j * (1.0 - j / n)) / (1.0 - a)
    return 1.0 - last**n - (1.0 - last) * float(terms.sum())


def positivity_report(model: PopulationModel) -> PositivityReport:
    """Deterministic report: closed-form strongest-first and weakest-first.

    A threshold too large for a float is ``inf``, one that no draw clears.
    """
    c = _linear_drops(model.decay_step, model.n)
    # non-decreasing thresholds make the strongest-first criterion exact, and
    # make the stages that can fail a suffix, found by one binary search
    first = int(np.searchsorted(c, model.low, side="right"))
    return PositivityReport(
        _strongest_first(model, c), _weakest_first(model, c, first), method="analytic"
    )


def _seeded_rng(seed) -> np.random.Generator:
    """PCG64 generator for ``seed``, a non-negative Python or numpy int and not a bool."""
    return np.random.default_rng(_integer(seed, "seed", 0))


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
    ``seed`` a non-negative one; neither may be a bool.  ``trials * n`` may
    not exceed ``MAX_SIMULATED_DRAWS``: a larger count is refused before
    anything is drawn.
    """
    trials = _integer(trials, "trials", 1)
    limit = MAX_SIMULATED_DRAWS // model.n
    if trials > limit:
        raise ValueError(
            f"trials must be at most {limit} at n = {model.n} "
            f"({MAX_SIMULATED_DRAWS} draws in all), got {_echo(trials)}"
        )
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
