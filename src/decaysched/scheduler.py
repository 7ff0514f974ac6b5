"""Ordering evaluation and optimization under a decay law.

Evaluating an order applies the decay law to the initial probabilities
arranged in service order, then reads off the success-count metrics.
Optimization is either exhaustive (exact, n <= ``BRUTE_FORCE_MAX_ITEMS``) or
by the sorted-order strategies that provably achieve the optimum for each
decay-law/objective combination.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Literal

import numpy as np

from . import _kernels
from .decay import AdditiveDecay, MultiplicativeDecay, _as_permutation, _decayed, _DecaySpec
from .distribution import SuccessCountPmf, _as_probability_vector, _convolved_pmf, _frozen

__all__ = [
    "Objective",
    "ScheduleMetrics",
    "BRUTE_FORCE_MAX_ITEMS",
    "sort_order",
    "stage_item_matrix",
    "evaluate_order",
    "brute_force_optimal",
    "recommended_order",
]

# the exact subset search costs O(n^2 * 2^n); raising this cap changes the
# public contract (its error text names the limit)
BRUTE_FORCE_MAX_ITEMS = 10

OrderDirection = Literal["ascending", "descending"]
OrderStrategy = Literal["ascending", "descending", "any"]


class Objective(enum.Enum):
    """What a schedule is optimized for."""

    EXPECTED_SUCCESSES = "expected"
    PROB_ALL_SUCCESS = "all"


@dataclass(frozen=True, eq=False)
class ScheduleMetrics:
    """Success metrics of one evaluated service order.

    A record: it freezes a float64 copy of the at-processing-time
    probabilities, checks nothing, and computes from them
    ``expected_successes`` (their sum) and ``prob_all_success`` (their
    product) at once, and ``pmf``, the O(n^2) success-count distribution,
    on first read.  The pmf's mean and top entry match the first two up to
    rounding that grows with n.
    """

    stage_probabilities: np.ndarray
    expected_successes: float = field(init=False)
    prob_all_success: float = field(init=False)

    def __post_init__(self) -> None:
        p1 = _frozen(self.stage_probabilities)
        object.__setattr__(self, "stage_probabilities", p1)
        object.__setattr__(self, "expected_successes", float(np.sum(p1)))
        object.__setattr__(self, "prob_all_success", float(np.prod(p1)))

    @cached_property
    def pmf(self) -> SuccessCountPmf:
        return _convolved_pmf(self.stage_probabilities)

    def value(self, objective: Objective) -> float:
        if Objective(objective) is Objective.EXPECTED_SUCCESSES:
            return self.expected_successes
        return self.prob_all_success


def sort_order(p0, direction: OrderDirection) -> np.ndarray:
    """Read-only permutation arranging the items by initial probability.

    Ascending order serves the weakest item first; descending the strongest.
    Equal probabilities keep their original relative order.
    """
    pv = _as_probability_vector(p0)
    if direction not in ("ascending", "descending"):
        raise ValueError(f"direction must be 'ascending' or 'descending', got {direction!r}")
    order = np.argsort(pv.probs if direction == "ascending" else -pv.probs, kind="stable")
    order.flags.writeable = False
    return order


def stage_item_matrix(p0, decay: _DecaySpec) -> np.ndarray:
    """Read-only table of at-processing-time probabilities: entry (i, j) is
    the value item ``j`` would have if served at stage ``i`` (both 0-based)."""
    pv = _as_probability_vector(p0)
    table = _decayed(pv.probs[None, :], np.arange(pv.n)[:, None], decay)
    table.flags.writeable = False
    return table


def evaluate_order(p0, order, decay: _DecaySpec) -> ScheduleMetrics:
    """Metrics for serving the items of ``p0`` in the order given by ``order``.

    ``order[i]`` names the item served at stage ``i``; the decay law is applied
    to the reordered vector and all metrics derive from the resulting
    at-processing-time probabilities, one per item, each in [0, 1].
    """
    pv = _as_probability_vector(p0)
    perm = _as_permutation(order, n=pv.n)
    return ScheduleMetrics(_decayed(pv.probs[perm], np.arange(pv.n), decay))


def brute_force_optimal(p0, decay: _DecaySpec, objective: Objective) -> tuple[np.ndarray, float]:
    """Exactly maximize the objective over all n! service orders.

    Returns ``(order, value)``.  The search builds the order one stage at a
    time, with one dynamic programme over subsets of the remaining items per
    stage (see ``_kernels.best_permutation``); the first stage's pass gives
    the optimum.  Its value is bit-identical to enumerating every order, and
    ties resolve to the lexicographically smallest order.  Limited to
    n <= ``BRUTE_FORCE_MAX_ITEMS``.
    """
    pv = _as_probability_vector(p0)
    objective = Objective(objective)
    if pv.n > BRUTE_FORCE_MAX_ITEMS:
        raise ValueError(
            f"exhaustive search is limited to n <= {BRUTE_FORCE_MAX_ITEMS} items, got n = {pv.n}"
        )
    table = stage_item_matrix(pv, decay)
    value, perm = _kernels.best_permutation(
        table, use_product=objective is Objective.PROB_ALL_SUCCESS
    )
    return perm, float(value)


def recommended_order(decay: _DecaySpec, objective: Objective) -> OrderStrategy:
    """Sorted-order strategy that attains the optimum for this combination.

    Additive decay: ascending (weakest first) maximizes the all-success
    probability; descending (strongest first) maximizes the expected count,
    and is also safe when no item is ever clamped to zero, where the expected
    count is the same for every order.  Multiplicative decay: descending
    maximizes the expected count, while the all-success probability is the
    same for every order ('any').
    """
    objective = Objective(objective)
    if isinstance(decay, MultiplicativeDecay):
        if objective is Objective.PROB_ALL_SUCCESS:
            return "any"
        return "descending"
    if isinstance(decay, AdditiveDecay):
        if objective is Objective.PROB_ALL_SUCCESS:
            return "ascending"
        return "descending"
    raise TypeError(f"decay must be AdditiveDecay or MultiplicativeDecay, got {type(decay).__name__}")
