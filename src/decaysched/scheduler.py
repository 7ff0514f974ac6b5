"""Ordering evaluation and optimization under a decay law.

Evaluating an order applies the decay law to the initial probabilities
arranged in service order, then reads off the success-count metrics.
Optimization is either exhaustive (exact, n <= ``BRUTE_FORCE_MAX_ITEMS``) or
by the sorted-order strategies that provably achieve the optimum for each
decay-law/objective combination.

The exhaustive search is a dynamic programme over subsets of items (Held &
Karp 1962, *J. SIAM* 10(1):196-210): O(n^2 * 2^n) work instead of the
O(n * n!) of enumerating every order.  It folds the table stage by stage,
exactly as an enumeration would, and both ``x + c`` and ``x * c`` (for
``c >= 0``) round monotonically in ``x``, so the best fold of a subset
extends to the best fold of its supersets and the optimum is bit-identical
to the enumeration's.  At n = 6..9 the time goes to numpy's fixed cost
per call, so the arrays are laid out for as few calls as possible (see
``_best_folds``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Literal

import numpy as np

from .decay import AdditiveDecay, _check_law, _decayed, _DecaySpec, _echo
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


# each objective's fold of an order's stage probabilities, left to right from its identity
_FOLDS = {Objective.EXPECTED_SUCCESSES: np.add, Objective.PROB_ALL_SUCCESS: np.multiply}


def _objective(value: object) -> Objective:
    """``value`` as an ``Objective``: a member, or its value ``'expected'`` or ``'all'``."""
    try:
        return Objective(value)
    except ValueError:
        raise ValueError(f"objective must be 'expected' or 'all', got {_echo(value)}") from None


@dataclass(frozen=True, eq=False)
class ScheduleMetrics:
    """Success metrics of one evaluated service order.

    A record: it freezes a float64 copy of the at-processing-time
    probabilities, checks nothing, and folds them into their sum and their
    product left to right, as the exhaustive search does, so no order's
    ``value`` exceeds the search's, the value of the order it returns.  The
    O(n^2) success-count ``pmf`` is computed on first read; its mean and top
    entry match the sum and the product up to rounding that grows with n.
    """

    stage_probabilities: np.ndarray
    expected_successes: float = field(init=False)
    prob_all_success: float = field(init=False)

    def __post_init__(self) -> None:
        p1 = _frozen(self.stage_probabilities)
        object.__setattr__(self, "stage_probabilities", p1)
        object.__setattr__(self, "expected_successes", self.value(Objective.EXPECTED_SUCCESSES))
        object.__setattr__(self, "prob_all_success", self.value(Objective.PROB_ALL_SUCCESS))

    @cached_property
    def pmf(self) -> SuccessCountPmf:
        return _convolved_pmf(self.stage_probabilities)

    def value(self, objective: Objective) -> float:
        fold = _FOLDS[_objective(objective)]
        return float(fold.accumulate(np.append(fold.identity, self.stage_probabilities))[-1])


def sort_order(p0, direction: OrderDirection) -> np.ndarray:
    """Read-only permutation arranging the items by initial probability.

    Ascending order serves the weakest item first; descending the strongest.
    Equal probabilities keep their original relative order.
    """
    pv = _as_probability_vector(p0)
    # a str first: an array's membership test is an array, whose truth value is ambiguous
    if not (isinstance(direction, str) and direction in ("ascending", "descending")):
        raise ValueError(
            f"direction must be 'ascending' or 'descending', got {_echo(direction)}"
        )
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


def _as_permutation(order, n: int) -> np.ndarray:
    """Validate ``order`` as a permutation of ``0..n-1``.

    Entries may be integers, integral floats or Python objects such as
    integers beyond int64.  numpy compares all of these with the int64
    range exactly, so the comparison runs on the entries as given and the
    cast to int64 follows it.
    """
    try:
        arr = np.asarray(order)
        ranked = np.sort(arr, axis=None)
    except (ValueError, TypeError):  # a ragged nesting, or entries that do not compare
        raise ValueError("order must be a one-dimensional sequence of integers") from None
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("order must be a non-empty one-dimensional sequence")
    if arr.size != n:
        raise ValueError(f"order has length {arr.size}, expected {n}")
    if arr.dtype.kind not in "iufO" or (arr.dtype.kind == "f" and (np.trunc(arr) != arr).any()):
        raise ValueError("order must contain integers")
    if not np.array_equal(ranked, np.arange(arr.size)):
        typed = _echo(np.asarray(order, dtype=object).tolist())
        raise ValueError(f"order {typed} is not a permutation of 0..{arr.size - 1}")
    return arr.astype(np.int64)


def evaluate_order(p0, order, decay: _DecaySpec) -> ScheduleMetrics:
    """Metrics for serving the items of ``p0`` in the order given by ``order``.

    ``order[i]`` names the item served at stage ``i``; the decay law is applied
    to the reordered vector and all metrics derive from the resulting
    at-processing-time probabilities, one per item, each in [0, 1].
    """
    pv = _as_probability_vector(p0)
    perm = _as_permutation(order, n=pv.n)
    return ScheduleMetrics(_decayed(pv.probs[perm], np.arange(pv.n), decay))


@lru_cache(maxsize=None)
def _subset_layers(k: int) -> tuple[tuple[slice, np.ndarray, np.ndarray], ...]:
    """Subsets of k items in popcount order, one entry per size 1..k.

    Position ``p`` holds the ``p``-th bitmask when they are ordered by
    size, then by value: the empty set is at 0 and the full set at
    ``2^k - 1``.  Each entry is ``(layer, items, preds)``: the slice of
    positions of the L subsets of that size, the items in each subset and
    the position of the subset without that item.  ``items`` and ``preds``
    have shape ``(size, L)``: column ``c`` lists subset ``c``'s items in
    ascending order, so a layer gathers and reduces over its leading axis.
    """
    masks = np.arange(1 << k, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(k)) & 1
    sizes = bits.sum(axis=1)
    ordered = np.argsort(sizes, kind="stable")
    position = np.empty_like(ordered)
    position[ordered] = masks
    layers = []
    begin = 1
    for size in range(1, k + 1):
        end = begin + math.comb(k, size)
        subsets = ordered[begin:end]
        items = np.nonzero(bits[subsets])[1].reshape(subsets.size, size).T.copy()
        layers.append((slice(begin, end), items, position[subsets ^ (1 << items)]))
        begin = end
    return tuple(layers)


@lru_cache(maxsize=None)
def _without_each(m: int) -> np.ndarray:
    """Row ``r`` holds the positions ``0..m-1`` without ``r``, ascending."""
    return np.broadcast_to(np.arange(m), (m, m))[~np.eye(m, dtype=bool)].reshape(m, m - 1)


def _best_folds(tables: np.ndarray, start: np.ndarray, fold: np.ufunc) -> np.ndarray:
    """Best fold of each table in a batch over every order of its k items.

    ``tables`` is item-major, shape ``(k, k, batch)``: entry ``[i, j, b]`` is
    the value in table ``b`` of item ``j`` at stage ``i``; ``start`` holds
    each table's value before the first stage.  Returns the ``batch`` maxima.

    The batch runs along the last axis.  The best folds are
    ``(2^k, batch)``, one row per subset in ``_subset_layers`` order, so a
    layer of L subsets of one size is a contiguous slice of rows.  It
    gathers ``(size, L, batch)`` entries and prior folds with ``take``,
    folds the entries into the priors in place and reduces their maximum
    over the leading axis, the last item served, straight into its slice;
    numpy reduces a short trailing axis far more slowly.
    """
    k, _, batch = tables.shape
    best = np.empty((1 << k, batch))
    best[0] = start
    for stage, (layer, items, preds) in enumerate(_subset_layers(k)):
        prior = best.take(preds, axis=0)
        fold(prior, tables[stage].take(items, axis=0), out=prior)
        np.maximum.reduce(prior, axis=0, out=best[layer])
    return best[-1]


def _best_permutation(table: np.ndarray, fold: np.ufunc) -> tuple[float, np.ndarray]:
    """Maximize the ``fold`` (a ``_FOLDS`` ufunc) of one entry per row of an n-by-n table.

    Entry ``(i, j)`` is item ``j``'s value at stage ``i``.  Values are
    folded stage by stage from the identity, as an enumeration of all n!
    orders would fold them, and ties resolve to the lexicographically
    smallest permutation.  Returns ``(best_value, best_permutation)``.

    Precondition, not checked here: ``table`` is a non-empty, square
    float64 array with no negative or NaN entry, as ``brute_force_optimal``
    builds it with ``stage_item_matrix``.  The search relies on it: ``x * c``
    rounds monotonically in ``x`` only for ``c >= 0``, and a NaN optimum
    equals no fold.

    The order is built one stage at a time.  Each stage runs one batched
    subset search, from every remaining item's fold onto the actual prefix
    value, over the items left after it, and serves the smallest item that
    reaches the optimum.  The first stage's searches cover every order, so
    their maximum is the optimum; no separate pass finds it.
    """
    n = table.shape[0]
    value = fold.identity
    remaining = np.arange(n, dtype=np.int64)
    perm = np.empty(n, dtype=np.int64)
    for stage in range(n):
        # fold from the actual prefix value, which may sit below the best
        # fold of the prefix set
        entries = table[stage, remaining]
        starts = fold(entries, value)
        # row r: the items left after serving remaining[r] now
        rest = remaining[_without_each(remaining.size)]
        folds = _best_folds(table[stage + 1 :][:, rest.T], starts, fold)
        if stage == 0:
            target = folds.max()
        pick = int((folds == target).argmax())
        perm[stage] = remaining[pick]
        remaining = rest[pick]
        value = starts[pick]
    return float(target), perm


def brute_force_optimal(p0, decay: _DecaySpec, objective: Objective) -> tuple[np.ndarray, float]:
    """Exactly maximize the objective over all n! service orders.

    Returns ``(order, value)``, found by ``_best_permutation``.  The value is
    bit-identical to enumerating every order and is ``order``'s value by
    ``evaluate_order``, which no order's value exceeds.  Ties resolve to the
    lexicographically smallest order.  Limited to n <= ``BRUTE_FORCE_MAX_ITEMS``.
    """
    pv = _as_probability_vector(p0)
    objective = _objective(objective)
    if pv.n > BRUTE_FORCE_MAX_ITEMS:
        raise ValueError(
            f"exhaustive search is limited to n <= {BRUTE_FORCE_MAX_ITEMS} items, got n = {pv.n}"
        )
    value, perm = _best_permutation(stage_item_matrix(pv, decay), _FOLDS[objective])
    return perm, value


def recommended_order(decay: _DecaySpec, objective: Objective) -> OrderStrategy:
    """Sorted-order strategy that attains the optimum for this combination.

    Two rules.  Expected successes: descending (strongest first) under
    either law; under the additive law every order ties when no item is
    ever clamped to zero.  All-success probability: ascending (weakest
    first) under the additive law, and 'any' under the multiplicative law,
    whose stage factors multiply to ``factor**(n*(n-1)/2)`` whatever the
    order.
    """
    objective = _objective(objective)
    _check_law(decay)
    if objective is Objective.EXPECTED_SUCCESSES:
        return "descending"
    return "ascending" if isinstance(decay, AdditiveDecay) else "any"
