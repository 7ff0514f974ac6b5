"""Decay laws mapping initial success probabilities to at-processing-time values.

Two laws are supported.  Under the additive law, the item served at stage
``i`` loses ``rate * (i - 1)`` from its initial probability, clamped at zero:
``P1(i) = (P0(i) - rate * (i - 1))^+``.  Under the multiplicative law it
retains a factor per elapsed stage: ``P1(i) = P0(i) * p**(i - 1)``.  In both,
the first-served item suffers no decay (stage 1 starts at time 0).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

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


def _echo(value: object) -> str:
    """An input as an error message shows it: its ``repr``, cut by ``_clip``.

    The ``repr`` tells a refused value from a valid-looking one: the string
    ``'0.1'`` and ``Decimal('0.5')`` show their quotes and type, while a
    Python float, int or list reads as its text, and a float ``-0.0`` as
    ``0.0``, as ``_real`` reads it.  An int too long for Python to write
    out (over 4,300 digits by default) shows its digit count instead, also
    as a list entry, so that the message names its field rather than
    failing to form.

    >>> _echo(-10**5000)
    '<negative int of 5001 digits>'
    """
    if isinstance(value, float):
        value += 0.0
    try:
        return _clip(repr(value))
    except ValueError:
        pass
    if isinstance(value, list):
        return _clip("[" + ", ".join(map(_echo, value)) + "]")
    if not isinstance(value, int):
        return f"<{type(value).__name__}>"
    size = abs(value)
    digits = int(math.log10(size)) + 1  # log10 may round across a power of ten
    digits += (size >= 10**digits) - (size < 10 ** (digits - 1))
    return f"<{'negative ' if value < 0 else ''}int of {digits} digits>"


def _is_number(value: object) -> bool:
    """A real number, not a bool: a Python or numpy int or float, or a ``Fraction``."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _real(value: object) -> float:
    """``value`` as a Python float for a range check, with ``-0.0`` read as ``0.0``: +-inf
    for an int beyond the float range, and NaN, which every check refuses, for what
    ``_is_number`` refuses."""
    if not _is_number(value):
        return math.nan
    try:
        return float(value) + 0.0
    except OverflowError:  # an int or a Fraction beyond the float range
        return math.inf if value > 0 else -math.inf


def _integer(value: object, name: str, minimum: int) -> int:
    """``value`` as a Python int, if it is a Python or numpy integer >= ``minimum``, not a bool."""
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value >= minimum):
        kind = "positive" if minimum else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {_echo(value)}")
    return int(value)


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

    The law keeps only ``rate`` and ``n``; its drops are computed where it is
    applied, so a law of any length costs nothing to build.  A drop that
    overflows to inf clamps its stage to zero, as any drop beyond the item's
    probability does.
    """

    rate: float
    n: int

    def __post_init__(self) -> None:
        rate = _real(self.rate)
        if not 0.0 <= rate < math.inf:
            raise ValueError(f"decay rate must be a finite number >= 0, got {_echo(self.rate)}")
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "n", _integer(self.n, "n", 1))

    @property
    def decay_per_stage(self) -> np.ndarray:
        """The ``n`` drops, in a new read-only array."""
        drops = _linear_drops(self.rate, self.n)
        drops.flags.writeable = False
        return drops

    @classmethod
    def linear(cls, rate: float, n: int) -> "AdditiveDecay":
        """The same law as ``AdditiveDecay(rate, n)``."""
        return cls(rate, n)


@dataclass(frozen=True)
class MultiplicativeDecay:
    """Multiplicative decay by a factor strictly inside (0, 1) per stage."""

    factor: float

    def __post_init__(self) -> None:
        factor = _real(self.factor)
        if not 0.0 < factor < 1.0:
            raise ValueError(
                f"multiplicative factor must lie strictly between 0 and 1, got {_echo(self.factor)}"
            )
        object.__setattr__(self, "factor", factor)


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
    return np.maximum(p0 - _linear_drops(decay.rate, p0.size)[stage], 0.0)
