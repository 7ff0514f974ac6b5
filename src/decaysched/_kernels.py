"""Hot numeric kernels, in numpy.

Two inner loops dominate this package's runtime: the exhaustive search for
the best service order over a stage/item value table, and Monte Carlo trial
counting.

The search is a dynamic programme over subsets of items (Held & Karp 1962,
*J. SIAM* 10(1):196-210): O(n^2 * 2^n) work instead of the O(n * n!) of
enumerating every order.  It folds the table stage by stage, exactly as an
enumeration would, and both ``x + c`` and ``x * c`` (for ``c >= 0``) round
monotonically in ``x``, so the best fold of a subset extends to the best
fold of its supersets and the optimum is bit-identical to the
enumeration's.  The order is rebuilt with one batched pass per stage, and
the first stage's pass also yields the optimum.  The batch runs along the
last axis of every array: the best folds are ``(2^k, batch)``, one row per
subset in popcount order, and the tables ``(k, k, batch)``, item-major.
Each layer of subsets of one size is then a contiguous slice of rows.  It
gathers its prior rows with ``take``, folds the entries into them in
place, and reduces over the leading axis, the last item served, straight
into its slice; numpy reduces a short trailing axis far more slowly.  At
n = 6..9 the time goes to numpy's fixed cost per call, so each layer makes
as few calls as it can.

The counter sorts each block of trials once and compares only the live
stages, those whose threshold is at or above the block's smallest draw:
a stage below it cannot fail.  With the default population (13 items on
(0.5, 1.0), step 0.06) that is 4 of 13 stages.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "best_permutation",
    "count_positive_trials",
]


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


def _best_folds(tables: np.ndarray, start: np.ndarray, use_product: bool) -> np.ndarray:
    """Best fold of each table in a batch over every order of its k items.

    ``tables`` is item-major, shape ``(k, k, batch)``: entry ``[i, j, b]`` is
    the value in table ``b`` of item ``j`` at stage ``i``; ``start`` holds
    each table's value before the first stage.  Returns the ``batch`` maxima.

    The best folds are ``(2^k, batch)``, in ``_subset_layers`` order.  A
    layer of L subsets of one size gathers ``(size, L, batch)`` entries and
    prior folds with ``take``, folds the entries into the priors in place
    and reduces their maximum over the leading axis into its slice.
    """
    k, _, batch = tables.shape
    best = np.empty((1 << k, batch))
    best[0] = start
    fold = np.multiply if use_product else np.add
    for stage, (layer, items, preds) in enumerate(_subset_layers(k)):
        prior = best.take(preds, axis=0)
        fold(prior, tables[stage].take(items, axis=0), out=prior)
        np.maximum.reduce(prior, axis=0, out=best[layer])
    return best[-1]


def best_permutation(table: np.ndarray, use_product: bool) -> tuple[float, np.ndarray]:
    """Maximize sum (or product) of one entry per row of an n-by-n value table.

    Entry ``(i, j)`` is item ``j``'s value at stage ``i``.  Values are
    folded stage by stage, as an enumeration of all n! orders would fold
    them, and ties resolve to the lexicographically smallest permutation.
    Returns ``(best_value, best_permutation)``.

    Precondition, not checked here: ``table`` is a non-empty, square
    float64 array with no negative or NaN entry, as
    ``scheduler.stage_item_matrix`` builds it.  The search relies on it:
    ``x * c`` rounds monotonically in ``x`` only for ``c >= 0``, and a NaN
    optimum equals no fold.

    The order is built one stage at a time.  Each stage runs one batched
    subset search, from every remaining item's fold onto the actual prefix
    value, over the items left after it, and serves the smallest item that
    reaches the optimum.  The first stage's searches cover every order, so
    their maximum is the optimum; no separate pass finds it.
    """
    n = table.shape[0]
    value = 1.0 if use_product else 0.0
    remaining = np.arange(n, dtype=np.int64)
    perm = np.empty(n, dtype=np.int64)
    for stage in range(n):
        # fold from the actual prefix value, which may sit below the best
        # fold of the prefix set
        entries = table[stage, remaining]
        starts = entries * value if use_product else entries + value
        # row r: the items left after serving remaining[r] now
        rest = remaining[_without_each(remaining.size)]
        folds = _best_folds(table[stage + 1 :][:, rest.T], starts, use_product)
        if stage == 0:
            target = folds.max()
        pick = int((folds == target).argmax())
        perm[stage] = remaining[pick]
        remaining = rest[pick]
        value = starts[pick]
    return float(target), perm


def count_positive_trials(draws: np.ndarray, thresholds: np.ndarray) -> tuple[int, int]:
    """Count rows whose sorted values strictly exceed per-stage thresholds.

    Each row is sorted once and served both ascending and descending; stage
    ``k`` compares the k-th served value against ``thresholds[k]``, and a row
    counts only if every comparison is strictly greater.  Returns the counts
    for both orders as ``(ascending, descending)``.

    Only the stages from the first live one on are compared, where a stage
    is live when its threshold is at or above the smallest draw: every
    served value is at least that draw, so a stage below it passes in every
    row.  For non-decreasing thresholds the compared stages are exactly the
    live ones.  An infinite threshold is live and fails every row.

    Precondition, not checked here: ``draws`` is a float64 array of shape
    ``(rows, n)`` and ``thresholds`` one of shape ``(n,)``, neither holding
    NaN, as ``analysis.positivity_report_montecarlo`` passes them.
    """
    n = draws.shape[1]
    s = np.sort(draws, axis=1)
    live = np.flatnonzero(thresholds >= s[:, :1].min(initial=np.inf))
    first = int(live[0]) if live.size else n
    # np.all folds a short row slowly, so lay the comparison out stage by
    # stage; descending serves column j at stage n - 1 - j
    ascending = np.greater(s[:, first:], thresholds[first:], order="F").all(axis=1)
    descending = np.greater(s[:, : n - first], thresholds[::-1][: n - first], order="F").all(axis=1)
    return int(ascending.sum()), int(descending.sum())
