"""Scenario documents: one service-ordering problem as JSON.

Scenario files are JSON objects::

    {
      "probabilities": [0.8, 0.9, 0.7, 0.7],
      "decay": {"type": "additive", "rate": 0.1},
      "objective": "expected"
    }

``decay.type`` is ``additive`` (with ``rate`` >= 0, the per-stage linear
step) or ``multiplicative`` (with ``factor`` strictly inside (0, 1)).
``objective`` is optional and defaults to ``expected``; no other key is
accepted.  The parser checks the document's shape and that each number is
finite; each value's range is checked once, by the type it builds
(``ProbabilityVector``, ``AdditiveDecay``, ``MultiplicativeDecay``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .decay import AdditiveDecay, MultiplicativeDecay, _DecaySpec
from .distribution import ProbabilityVector, _as_probability_vector
from .scheduler import Objective

__all__ = ["ScenarioConfig", "parse_scenario", "serialize_scenario"]


@dataclass(frozen=True, eq=True)
class ScenarioConfig:
    """A service-ordering problem: initial probabilities, decay law, objective."""

    probabilities: ProbabilityVector
    decay: _DecaySpec
    objective: Objective = Objective.EXPECTED_SUCCESSES

    def __post_init__(self) -> None:
        object.__setattr__(self, "probabilities", _as_probability_vector(self.probabilities))
        object.__setattr__(self, "objective", Objective(self.objective))
        if not isinstance(self.decay, (AdditiveDecay, MultiplicativeDecay)):
            raise TypeError(
                f"decay must be AdditiveDecay or MultiplicativeDecay, got {type(self.decay).__name__}"
            )
        if isinstance(self.decay, AdditiveDecay) and self.decay.n != self.probabilities.n:
            raise ValueError(
                f"decay has {self.decay.n} stages, expected {self.probabilities.n}"
            )


def _require_number(value: object, field_name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field_name} must be a number, got {value!r}")
    # json reads NaN, Infinity and integers too large for a float
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{field_name} must be a finite number, got {number}")
    return number


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse a scenario document (see module docstring for the format).

    Every validation failure names the offending field, with the entry index
    for per-item problems (e.g. ``probabilities[2] = 1.5 is outside [0, 1]``).
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"scenario document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("scenario document must be a JSON object")
    unknown = set(doc) - {"probabilities", "decay", "objective"}
    if unknown:
        raise ValueError(f"unknown scenario field(s): {', '.join(sorted(unknown))}")

    if "probabilities" not in doc:
        raise ValueError("scenario is missing the 'probabilities' field")
    raw_probs = doc["probabilities"]
    if not isinstance(raw_probs, list) or not raw_probs:
        raise ValueError("probabilities must be a non-empty array of numbers")
    probabilities = ProbabilityVector(
        [_require_number(raw, f"probabilities[{i}]") for i, raw in enumerate(raw_probs)]
    )

    if "decay" not in doc:
        raise ValueError("scenario is missing the 'decay' field")
    raw_decay = doc["decay"]
    if not isinstance(raw_decay, dict):
        raise ValueError("decay must be an object with a 'type' field")
    decay_type = raw_decay.get("type")
    if decay_type == "additive":
        extra = set(raw_decay) - {"type", "rate"}
        if extra:
            raise ValueError(f"unknown additive decay field(s): {', '.join(sorted(extra))}")
        if "rate" not in raw_decay:
            raise ValueError("additive decay requires a 'rate' field")
        rate = _require_number(raw_decay["rate"], "decay.rate")
        decay: _DecaySpec = AdditiveDecay(rate, probabilities.n)
    elif decay_type == "multiplicative":
        extra = set(raw_decay) - {"type", "factor"}
        if extra:
            raise ValueError(f"unknown multiplicative decay field(s): {', '.join(sorted(extra))}")
        if "factor" not in raw_decay:
            raise ValueError("multiplicative decay requires a 'factor' field")
        decay = MultiplicativeDecay(_require_number(raw_decay["factor"], "decay.factor"))
    else:
        raise ValueError(
            f"decay.type must be 'additive' or 'multiplicative', got {decay_type!r}"
        )

    objective = Objective.EXPECTED_SUCCESSES
    if "objective" in doc:
        try:
            objective = Objective(doc["objective"])
        except ValueError:
            raise ValueError(
                f"objective must be 'expected' or 'all', got {doc['objective']!r}"
            ) from None

    return ScenarioConfig(probabilities, decay, objective)


def serialize_scenario(config: ScenarioConfig) -> str:
    """Render a ScenarioConfig as a scenario document; exact round-trip.

    An additive law is written as its ``rate`` and a multiplicative one as
    its ``factor``, so every valid config has a document.
    """
    doc: dict[str, object] = {
        "probabilities": config.probabilities.probs.tolist(),
        "objective": config.objective.value,
    }
    if isinstance(config.decay, AdditiveDecay):
        doc["decay"] = {"type": "additive", "rate": config.decay.rate}
    else:
        doc["decay"] = {"type": "multiplicative", "factor": config.decay.factor}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
