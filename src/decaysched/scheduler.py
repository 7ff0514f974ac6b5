"""Ordering evaluation and optimization under a decay law.

Evaluating an order applies the decay law to the initial probabilities
arranged in service order, then reads off the success-count metrics.
Optimization is either exhaustive (exact, n <= 10) or by the sorted-order
strategies that provably achieve the optimum for each decay-law/objective
combination.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import _kernels
from .decay import AdditiveDecay, DecaySpec, MultiplicativeDecay, _decayed, as_permutation
from .distribution import (
    ProbabilityVector,
    SuccessCountPmf,
    as_probability_vector,
    expected_successes,
    prob_all_success,
    success_count_pmf,
)

__all__ = [
    "Objective",
    "ScheduleMetrics",
    "OrderDirection",
    "OrderStrategy",
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
    """Success metrics of one evaluated service order."""

    expected_successes: float
    prob_all_success: float
    pmf: SuccessCountPmf

    def __post_init__(self) -> None:
        if abs(self.expected_successes - self.pmf.mean()) > 1e-10:
            raise ValueError("expected_successes disagrees with the pmf mean")
        if abs(self.prob_all_success - self.pmf[self.pmf.n]) > 1e-12:
            raise ValueError("prob_all_success disagrees with the pmf top entry")

    @classmethod
    def from_stage_probabilities(cls, p1: ProbabilityVector) -> "ScheduleMetrics":
        return cls(
            expected_successes=expected_successes(p1),
            prob_all_success=prob_all_success(p1),
            pmf=success_count_pmf(p1),
        )

    def value(self, objective: Objective) -> float:
        if Objective(objective) is Objective.EXPECTED_SUCCESSES:
            return self.expected_successes
        return self.prob_all_success


def sort_order(p0, direction: OrderDirection) -> np.ndarray:
    """Permutation arranging the items by initial probability, ties kept stable.

    Ascending order serves the weakest item first; descending the strongest.
    Equal probabilities keep their original relative order.
    """
    pv = as_probability_vector(p0)
    if direction == "ascending":
        return np.argsort(pv.probs, kind="stable")
    if direction == "descending":
        return np.argsort(-pv.probs, kind="stable")
    raise ValueError(f"direction must be 'ascending' or 'descending', got {direction!r}")


def stage_item_matrix(p0, decay: DecaySpec) -> np.ndarray:
    """Table of at-processing-time probabilities: entry (i, j) is the value
    item ``j`` would have if served at stage ``i`` (both 0-based)."""
    pv = as_probability_vector(p0)
    return _decayed(pv.probs[None, :], np.arange(pv.n)[:, None], decay)


def evaluate_order(p0, order, decay: DecaySpec) -> ScheduleMetrics:
    """Metrics for serving the items of ``p0`` in the order given by ``order``.

    ``order[i]`` names the item served at stage ``i``; the decay law is applied
    to the reordered vector and all metrics derive from the resulting
    at-processing-time probabilities.
    """
    pv = as_probability_vector(p0)
    perm = as_permutation(order, n=pv.n)
    p1 = ProbabilityVector(_decayed(pv.probs[perm], np.arange(pv.n), decay))
    return ScheduleMetrics.from_stage_probabilities(p1)


def brute_force_optimal(p0, decay: DecaySpec, objective: Objective) -> tuple[np.ndarray, float]:
    """Exactly maximize the objective over all n! service orders.

    Returns ``(order, value)``.  The search builds the order one stage at a
    time, with one dynamic programme over subsets of the remaining items per
    stage (see ``_kernels.best_permutation``); the first stage's pass gives
    the optimum.  Its value is bit-identical to enumerating every order, and
    ties resolve to the lexicographically smallest order.  Limited to
    n <= 10.
    """
    pv = as_probability_vector(p0)
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


def recommended_order(decay: DecaySpec, objective: Objective) -> OrderStrategy:
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
