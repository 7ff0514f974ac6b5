"""Decay laws mapping initial success probabilities to at-processing-time values.

Two laws are supported.  Under the additive law, the item served at stage
``i`` loses ``d_i`` from its initial probability, clamped at zero:
``P1(i) = (P0(i) - d_i)^+``.  Under the multiplicative law it retains a
factor per elapsed stage: ``P1(i) = P0(i) * p**(i - 1)``.  In both, the
first-served item suffers no decay (stage 1 starts at time 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution import ProbabilityVector, as_probability_vector

__all__ = [
    "AdditiveDecay",
    "MultiplicativeDecay",
    "DecaySpec",
    "as_permutation",
    "linear_decay_sequence",
    "stage_probabilities",
]


def linear_decay_sequence(rate: float, n: int) -> np.ndarray:
    """Per-stage drops ``d_i = rate * (i - 1)`` for ``i = 1..n``.

    >>> linear_decay_sequence(0.1, 4).tolist()
    [0.0, 0.1, 0.2, 0.30000000000000004]
    """
    if not 0.0 <= rate < np.inf:
        raise ValueError(f"decay rate must be a finite number >= 0, got {rate}")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    # a finite rate may still overflow; the inf it leaves is for callers to reject
    with np.errstate(over="ignore"):
        return rate * np.arange(n, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class AdditiveDecay:
    """Additive decay: per-stage drops ``d_1..d_n`` (non-decreasing, >= 0).

    ``interval`` (> 0) enters no computation: the drops already hold the
    time dependence.  It is kept so that a scenario's ``interval`` field
    round-trips through ``serialize_scenario``.
    """

    decay_per_stage: np.ndarray
    interval: float = 1.0

    def __post_init__(self) -> None:
        arr = np.array(self.decay_per_stage, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("decay_per_stage must be a non-empty one-dimensional sequence")
        if not np.isfinite(arr).all():
            raise ValueError("decay_per_stage entries must be finite")
        if (arr < 0.0).any():
            i = int(np.argmax(arr < 0.0))
            raise ValueError(f"decay_per_stage[{i}] = {arr[i]} is negative")
        if (np.diff(arr) < 0.0).any():
            raise ValueError("decay_per_stage must be non-decreasing")
        if not self.interval > 0.0:
            raise ValueError(f"interval must be > 0, got {self.interval}")
        arr.flags.writeable = False
        object.__setattr__(self, "decay_per_stage", arr)

    @classmethod
    def linear(cls, rate: float, n: int, interval: float = 1.0) -> "AdditiveDecay":
        """Canonical linear case: the stage-``i`` drop is ``rate * (i - 1)``."""
        return cls(linear_decay_sequence(rate, n), interval)

    @property
    def n(self) -> int:
        return self.decay_per_stage.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AdditiveDecay):
            return NotImplemented
        return (
            np.array_equal(self.decay_per_stage, other.decay_per_stage)
            and self.interval == other.interval
        )


@dataclass(frozen=True)
class MultiplicativeDecay:
    """Multiplicative decay by a factor strictly inside (0, 1) per stage."""

    factor: float

    def __post_init__(self) -> None:
        if not (0.0 < self.factor < 1.0):
            raise ValueError(
                f"multiplicative factor must lie strictly between 0 and 1, got {self.factor}"
            )


DecaySpec = AdditiveDecay | MultiplicativeDecay


def as_permutation(order, n: int | None = None) -> np.ndarray:
    """Validate ``order`` as a permutation of ``0..len-1`` (optionally of size ``n``)."""
    arr = np.asarray(order)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("order must be a non-empty one-dimensional sequence")
    if not np.issubdtype(arr.dtype, np.integer):
        cast = arr.astype(np.int64)
        if not np.array_equal(cast, arr):
            raise ValueError("order must contain integers")
        arr = cast
    arr = arr.astype(np.int64)
    if n is not None and arr.size != n:
        raise ValueError(f"order has length {arr.size}, expected {n}")
    if not np.array_equal(np.sort(arr), np.arange(arr.size)):
        raise ValueError(f"order {arr.tolist()} is not a permutation of 0..{arr.size - 1}")
    return arr


def _decayed(p0: np.ndarray, stage: np.ndarray, decay: DecaySpec) -> np.ndarray:
    """Value at 0-based ``stage`` of an item with initial probability ``p0``.

    The two arrays broadcast against each other.  ``p0`` holds one entry
    per item, and an additive law must have exactly one stage per item.
    """
    if isinstance(decay, AdditiveDecay):
        if decay.n != p0.size:
            raise ValueError(f"decay has {decay.n} stages, expected {p0.size}")
        return np.maximum(p0 - decay.decay_per_stage[stage], 0.0)
    if isinstance(decay, MultiplicativeDecay):
        return p0 * decay.factor ** stage
    raise TypeError(f"decay must be AdditiveDecay or MultiplicativeDecay, got {type(decay).__name__}")


def stage_probabilities(p0_in_service_order, decay: DecaySpec) -> ProbabilityVector:
    """Apply a decay law to probabilities already arranged in service order.

    The multiplicative law's stage factors multiply to
    ``factor**(n*(n-1)/2)`` whatever the order, which is why the all-success
    probability is order-invariant under that law.
    """
    pv = as_probability_vector(p0_in_service_order)
    return ProbabilityVector(_decayed(pv.probs, np.arange(pv.n), decay))
