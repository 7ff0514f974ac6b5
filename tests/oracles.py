"""Slow, independent oracles for the exhaustive search and the weakest-first
positivity probability, Higham's rounding bound ``gamma``, and the error
bound that the package states for weakest-first.

None is used by the package at run time.  ``best_order_by_enumeration``
tries every service order of a stage/item table; the tests compare the
search kernel and ``decaysched.brute_force_optimal`` against it.

The tests compare the weakest-first value of ``decaysched.positivity_report``
against the other four.  Each finds the stages that can fail, or maps
the thresholds, on its own (``active_ranks``, ``_bound``), in plain
Python floats, so a wrong rule in the package does not carry over to them.

``prob_weakest_first_positive_quadrature`` integrates the joint density of
the top ``m`` order statistics ``t_1 <= ... <= t_m`` of ``n`` uniform draws,

    n!/(n-m)! * F(t_1)**(n-m) * prod_j f(t_j)

with ``F``/``f`` the Uniform(low, high) cdf/pdf, over the box-truncated
simplex where each ``t_j`` exceeds its stage threshold, as nested
one-dimensional adaptive quadratures, innermost variable first.

``prob_weakest_first_positive_exact`` runs Noe's recursion in its binomial
form in rational arithmetic, on float boundaries rounded as the package
rounds them, so it differs from the package's value only by that value's
rounding.  ``prob_weakest_first_positive_steck`` computes the same rational
number another way, by Steck's determinant (Steck 1971, *Ann. Math.
Statist.* 42(1):1-11; Shorack & Wellner 1986, ch. 9), fast enough for
n = 120.

``prob_weakest_first_positive_line_sum`` evaluates, in rational arithmetic,
the sum the package evaluates in floats (Daniels 1945; Birnbaum & Tingey
1951).  The sum assumes the boundaries lie on one line, which the float
boundaries do only up to rounding, so it equals the other two exactly only
when they do: then it checks the package's float arithmetic alone.

``prob_weakest_first_positive_low_zero`` is exact at any ``n`` when
``low = 0``.  Abel's binomial identity turns the line-boundary sum into a
sum over the ranks that cannot fail, with the line extended below 0; at
``low = 0`` rank 1 is the only one, so one positive term remains.  It takes
the inputs as given, not the package's float boundaries.
"""

from __future__ import annotations

import decimal
import itertools
import math
from fractions import Fraction

import numpy as np

from decaysched import PopulationModel

# nested adaptive quadrature beyond 6 axes is slower than simulating
MAX_QUADRATURE_DIMENSION = 6

_QUAD_EPSABS = 1e-9

UNIT_ROUNDOFF = 2.0**-53


def gamma(k):
    """Higham's gamma_k = k u / (1 - k u): the relative error bound of k roundings."""
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


def best_order_by_enumeration(table, use_product: bool):
    """``(value, order)`` maximizing the table's fold over every service order.

    ``table[stage, item]`` is summed, or multiplied, left to right in stage
    order, as the search kernel folds it, so values agree bit for bit.  Ties
    go to the first maximizer in lexicographic order.
    """
    n = table.shape[0]
    best_value = -math.inf
    best_order = None
    for order in itertools.permutations(range(n)):
        value = 1.0 if use_product else 0.0
        for stage, item in enumerate(order):
            if use_product:
                value = value * table[stage, item]
            else:
                value = value + table[stage, item]
        if value > best_value:
            best_value = value
            best_order = order
    return best_value, np.array(best_order)


class QuadratureDimensionError(ValueError):
    """Too many active thresholds for the nested-quadrature oracle."""


def _threshold(model: PopulationModel, rank: int) -> float:
    return model.decay_step * (rank - 1)


def active_ranks(model: PopulationModel) -> list[int]:
    """1-based ranks ``k`` whose stage threshold ``d * (k - 1)`` exceeds ``low``.

    Every draw exceeds ``low``, so only these stages can fail under
    weakest-first service.
    """
    return [k for k in range(1, model.n + 1) if _threshold(model, k) > model.low]


def _bound(model: PopulationModel, rank: int) -> float:
    """The threshold of ``rank`` mapped to Uniform(0, 1), clipped to [0, 1]."""
    return min(max((_threshold(model, rank) - model.low) / (model.high - model.low), 0.0), 1.0)


def prob_weakest_first_positive_quadrature(model: PopulationModel) -> float:
    """Positivity probability for weakest-first service via nested quadrature.

    Integrates the joint density of the top-m order statistics over the
    region where each active order statistic exceeds its stage threshold
    (each variable bounded above by the next order statistic).  Deterministic;
    per-axis absolute tolerance 1e-9.  Raises QuadratureDimensionError when
    more than MAX_QUADRATURE_DIMENSION thresholds are active.
    """
    from scipy.integrate import quad

    ranks = active_ranks(model)
    m = len(ranks)
    if m == 0:
        return 1.0
    if m > MAX_QUADRATURE_DIMENSION:
        raise QuadratureDimensionError(
            f"{m} active thresholds exceed the {MAX_QUADRATURE_DIMENSION}-axis quadrature "
            f"limit; use positivity_report_montecarlo instead"
        )
    thresholds = [_threshold(model, rank) for rank in ranks]
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
    below ``a_k``.  The boundaries are floats, rounded as the package rounds
    them and converted exactly; every other step is rational.
    """
    ranks = active_ranks(model)
    if not ranks:
        return Fraction(1)
    n = model.n
    bounds = [_bound(model, rank) for rank in ranks]
    if bounds[-1] >= 1.0:
        return Fraction(0)
    weights = [Fraction(1)]  # weights[c]: c points at or below the previous boundary
    previous = Fraction(0)
    for rank, bound in zip(ranks, bounds):
        bound = Fraction(bound)
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


def prob_weakest_first_positive_steck(model: PopulationModel) -> Fraction:
    """Weakest-first positivity probability by Steck's determinant, exactly.

    With the ``n`` boundaries ``a_j`` of every rank (0 where the stage
    cannot fail), ``P(U_(j) > a_j for all j) = n! det M``, where ``M`` is
    upper Hessenberg: ``M[i][j] = t_j**(j-i+1) / (j-i+1)!`` for ``j >= i``
    with ``t_j = 1 - a_j``, ``M[j+1][j] = 1``, and 0 below that.

    Expanding the leading ``k``-by-``k`` determinant ``D_k`` along its last
    column gives ``D_k = sum_i (-1)**(k-i) M[i][k] D_(i-1)``.  The
    boundaries are floats, so ``t_j = N_j / Q`` with integers ``N_j`` and a
    power of two ``Q``; then ``T_k = k! Q**k D_k`` satisfies
    ``T_k = sum_i (-1)**(k-i) C(k, i-1) N_k**(k-i+1) T_(i-1)`` in integers,
    and the probability is ``T_n / Q**n``.  Same rational number as
    ``prob_weakest_first_positive_exact``, about 0.1 s at n = 120.
    """
    tails = [1 - Fraction(_bound(model, rank)) for rank in range(1, model.n + 1)]
    scale = max(tail.denominator for tail in tails)
    numerators = [tail.numerator * (scale // tail.denominator) for tail in tails]
    folded = [1]  # folded[k] = T_k
    for k, numerator in enumerate(numerators, 1):
        total, power = 0, 1
        for i in range(k, 0, -1):
            power *= numerator  # numerator**(k - i + 1)
            term = math.comb(k, i - 1) * power * folded[i - 1]
            total += term if (k - i) % 2 == 0 else -term
        folded.append(total)
    return Fraction(folded[-1], scale**model.n)


def prob_weakest_first_positive_line_sum(model: PopulationModel) -> Fraction:
    """Weakest-first positivity probability by the line-boundary sum, exactly.

    ``1 - a_n**n - (1 - a_n) * sum_j C(n, j) a_j**j (1 - a_j)**(n-j-1)``
    over the active ranks ``j < n``, on the float boundaries converted
    exactly.  Fast enough for n = 200.
    """
    n = model.n
    last = Fraction(_bound(model, n))
    if last >= 1:
        return Fraction(0)
    total = Fraction(0)
    for rank in active_ranks(model):
        if rank < n:
            a = Fraction(_bound(model, rank))
            total += math.comb(n, rank) * a**rank * (1 - a) ** (n - rank - 1)
    return 1 - last**n - (1 - last) * total


def prob_weakest_first_positive_low_zero(n: int, high: float, d: float) -> Fraction:
    """Weakest-first positivity probability at ``low = 0`` for ``n`` items and step ``d``.

    ``P = (1 - d (n - 1) / high) * (1 + d / high)**(n - 1)``, and 0 where
    the first factor is not positive.  The first factor is exact; the power
    is taken in 60-digit decimal arithmetic, a relative error below
    ``n * 1e-59``.
    """
    first = 1 - Fraction(d) * (n - 1) / Fraction(high)
    if first <= 0:
        return Fraction(0)
    with decimal.localcontext() as context:
        context.prec = 60
        growth = (1 + decimal.Decimal(d) / decimal.Decimal(high)) ** (n - 1)
    return first * Fraction(growth)


def weakest_first_error_bound(n: int, p: float) -> float:
    """The absolute error the package states for a weakest-first value ``p`` at ``n`` items:
    ``(gamma_n + 16 u) (1 - p) + 4 u``."""
    return (gamma(n) + 16 * UNIT_ROUNDOFF) * (1 - p) + 4 * UNIT_ROUNDOFF
