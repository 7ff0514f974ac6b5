"""Hot numeric kernels, in numpy.

Two inner loops dominate this package's runtime: the exhaustive search for
the best service order over a stage/item value table, and Monte Carlo trial
counting.

The search is a forward dynamic programme over subsets of served items
(Held & Karp 1962, *J. SIAM* 10(1):196-210): O(n^2 * 2^n) work instead of
the O(n * n!) of enumerating every order.  It folds the table stage by
stage, exactly as an enumeration would, and both ``x + c`` and ``x * c``
(for ``c >= 0``) round monotonically in ``x``, so the best fold of a subset
extends to the best fold of its supersets and the optimum is bit-identical
to the enumeration's.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "best_permutation",
    "count_positive_trials",
]


@lru_cache(maxsize=None)
def _subset_layers(k: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Subsets of k items, one entry per size 1..k.

    Each entry is ``(masks, items, preds)``: the bitmasks of that size, the
    items in each mask (one row per mask, ascending) and the mask without
    that item.
    """
    masks = np.arange(1 << k, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(k)) & 1
    sizes = bits.sum(axis=1)
    layers = []
    for size in range(1, k + 1):
        layer = masks[sizes == size]
        items = np.nonzero(bits[layer])[1].reshape(layer.size, size)
        layers.append((layer, items, layer[:, None] ^ (1 << items)))
    return tuple(layers)


def _best_folds(tables: np.ndarray, start: np.ndarray, use_product: bool) -> np.ndarray:
    """Best fold of each table in a batch over every order of its k items.

    ``tables`` has shape ``(batch, k, k)`` with entry ``[b, i, j]`` the value
    of item ``j`` at stage ``i``; ``start`` holds each table's value before
    the first stage.  Returns the ``batch`` maxima.
    """
    batch, k, _ = tables.shape
    best = np.empty((batch, 1 << k))
    best[:, 0] = start
    for stage, (layer, items, preds) in enumerate(_subset_layers(k)):
        entries = tables[:, stage, :][:, items]
        folds = best[:, preds] * entries if use_product else best[:, preds] + entries
        best[:, layer] = folds.max(axis=2)
    return best[:, -1]


def best_permutation(stage_item: np.ndarray, use_product: bool) -> tuple[float, np.ndarray]:
    """Maximize sum (or product) of one entry per row of an n-by-n value table.

    Entry ``(i, j)`` is item ``j``'s value at stage ``i``; entries must be
    non-negative.  Values are folded stage by stage, as an enumeration of
    all n! orders would fold them, and ties resolve to the lexicographically
    smallest permutation.  Returns ``(best_value, best_permutation)``.
    """
    table = np.ascontiguousarray(stage_item, dtype=np.float64)
    if table.ndim != 2 or table.shape[0] != table.shape[1] or table.shape[0] == 0:
        raise ValueError(f"stage_item must be a non-empty square matrix, got shape {table.shape}")
    if np.any(table < 0.0):
        raise ValueError("stage_item entries must be non-negative")
    n = table.shape[0]
    value = 1.0 if use_product else 0.0
    target = _best_folds(table[None], np.array([value]), use_product)[0]
    # Rebuild greedily: at each stage serve the smallest remaining item from
    # which the rest can still reach the target, folding from the actual
    # prefix value (which may sit below the best fold of the prefix set).
    remaining = np.arange(n, dtype=np.int64)
    perm = np.empty(n, dtype=np.int64)
    for stage in range(n):
        m = remaining.size
        entries = table[stage, remaining]
        starts = entries * value if use_product else entries + value
        # row r: the items left after serving remaining[r] now
        rest = np.broadcast_to(remaining, (m, m))[~np.eye(m, dtype=bool)].reshape(m, m - 1)
        tails = table[stage + 1 :][:, rest].transpose(1, 0, 2)
        pick = int(np.argmax(_best_folds(tails, starts, use_product) == target))
        perm[stage] = remaining[pick]
        remaining = np.delete(remaining, pick)
        value = starts[pick]
    return float(target), perm


def count_positive_trials(draws: np.ndarray, thresholds: np.ndarray, descending: bool) -> int:
    """Count rows whose sorted values strictly exceed per-stage thresholds.

    Each row is sorted ascending (descending when ``descending``) and stage
    ``k`` compares the k-th served value against ``thresholds[k]``; a row
    counts only if every comparison is strictly greater.
    """
    mat = np.ascontiguousarray(draws, dtype=np.float64)
    thr = np.ascontiguousarray(thresholds, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError(f"draws must be two-dimensional, got shape {mat.shape}")
    if thr.ndim != 1 or thr.size != mat.shape[1]:
        raise ValueError(f"thresholds must have length {mat.shape[1]}, got shape {thr.shape}")
    s = np.sort(mat, axis=1)
    if descending:
        s = s[:, ::-1]
    return int(np.all(s > thr, axis=1).sum())
