"""Decay laws mapping initial success probabilities to at-processing-time values.

Two laws are supported.  Under the additive law, the item served at stage
``i`` loses ``rate * (i - 1)`` from its initial probability, clamped at zero:
``P1(i) = (P0(i) - rate * (i - 1))^+``.  Under the multiplicative law it
retains a factor per elapsed stage: ``P1(i) = P0(i) * p**(i - 1)``.  In both,
the first-served item suffers no decay (stage 1 starts at time 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["AdditiveDecay", "MultiplicativeDecay"]

# most characters of an input that an error message echoes
_ECHO_LIMIT = 100


def _clip(text: str) -> str:
    """``text``, such as an input's repr, cut to ``_ECHO_LIMIT`` characters for an error message.

    A longer text keeps its start and ends in an ellipsis and its length, so
    that every message stays one short line.

    >>> _clip("0123456789" * 20)[90:]
    '0123456789... (200 characters)'
    """
    if len(text) <= _ECHO_LIMIT:
        return text
    return f"{text[:_ECHO_LIMIT]}... ({len(text)} characters)"


def _check_positive_int(value, name: str) -> None:
    """Raise unless ``value`` is a positive Python or numpy integer; a bool is not one."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value >= 1):
        raise ValueError(f"{name} must be a positive integer, got {value}")


def _satisfies(check, *values) -> bool:
    """Whether ``check(*values)`` holds.  It never does for a bool, nor for a
    value that the check cannot reduce to one truth value, such as a
    string, None or an array."""
    if any(isinstance(value, bool) for value in values):
        return False
    try:
        return bool(check(*values))
    except (TypeError, ValueError):
        return False


def _linear_drops(rate: float, n: int) -> np.ndarray:
    """Per-stage drops ``d_i = rate * (i - 1)`` for ``i = 1..n``; the caller checks both.

    Non-decreasing for every rate >= 0: rounding is monotone, and so is overflow.

    >>> _linear_drops(0.1, 4).tolist()
    [0.0, 0.1, 0.2, 0.30000000000000004]
    """
    # a finite rate may still overflow; an infinite drop clamps the item to zero
    with np.errstate(over="ignore"):
        return rate * np.arange(n, dtype=np.float64)


@dataclass(frozen=True)
class AdditiveDecay:
    """Additive decay over ``n`` stages: stage ``i`` (1-based) drops ``rate * (i - 1)``.

    ``decay_per_stage`` holds those ``n`` drops, computed once.  A drop that
    overflows to inf clamps its stage to zero, as any drop beyond the item's
    probability does.
    """

    rate: float
    n: int
    decay_per_stage: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not _satisfies(lambda rate: 0.0 <= rate < np.inf, self.rate):
            raise ValueError(f"decay rate must be a finite number >= 0, got {self.rate}")
        _check_positive_int(self.n, "n")
        drops = _linear_drops(self.rate, self.n)
        drops.flags.writeable = False
        object.__setattr__(self, "rate", float(self.rate))
        object.__setattr__(self, "decay_per_stage", drops)

    @classmethod
    def linear(cls, rate: float, n: int) -> "AdditiveDecay":
        """The same law as ``AdditiveDecay(rate, n)``."""
        return cls(rate, n)


@dataclass(frozen=True)
class MultiplicativeDecay:
    """Multiplicative decay by a factor strictly inside (0, 1) per stage."""

    factor: float

    def __post_init__(self) -> None:
        if not _satisfies(lambda factor: 0.0 < factor < 1.0, self.factor):
            raise ValueError(
                f"multiplicative factor must lie strictly between 0 and 1, got {self.factor}"
            )
        object.__setattr__(self, "factor", float(self.factor))


_DecaySpec = AdditiveDecay | MultiplicativeDecay


def _check_law(decay: object) -> None:
    """The one type check of a decay law: raise ``TypeError`` unless ``decay`` is either law."""
    if not isinstance(decay, (AdditiveDecay, MultiplicativeDecay)):
        raise TypeError(
            f"decay must be AdditiveDecay or MultiplicativeDecay, got {type(decay).__name__}"
        )


def _decayed(p0: np.ndarray, stage: np.ndarray, decay: _DecaySpec) -> np.ndarray:
    """Value at 0-based ``stage`` of an item with initial probability ``p0``.

    The two arrays broadcast against each other.  ``p0`` holds one entry
    per item, and an additive law must have exactly one stage per item.
    """
    _check_law(decay)
    if isinstance(decay, MultiplicativeDecay):
        return p0 * decay.factor ** stage
    if decay.n != p0.size:
        raise ValueError(f"decay has {decay.n} stages, expected {p0.size}")
    return np.maximum(p0 - decay.decay_per_stage[stage], 0.0)
