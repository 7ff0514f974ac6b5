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
accepted.  The parser checks only the document's shape; each value is
checked once, by the type it builds (``ProbabilityVector``,
``AdditiveDecay``, ``MultiplicativeDecay``, and ``ScenarioConfig`` for the
objective).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .decay import AdditiveDecay, MultiplicativeDecay, _check_law, _clip, _DecaySpec, _echo
from .distribution import ProbabilityVector, _as_probability_vector
from .scheduler import Objective, _objective

__all__ = ["ScenarioConfig", "parse_scenario", "serialize_scenario"]

# each law's ``decay.type`` and the one number field that sets it
_LAW_FIELDS = {"additive": "rate", "multiplicative": "factor"}


@dataclass(frozen=True, eq=True)
class ScenarioConfig:
    """A service-ordering problem: initial probabilities, decay law, objective."""

    probabilities: ProbabilityVector
    decay: _DecaySpec
    objective: Objective = Objective.EXPECTED_SUCCESSES

    def __post_init__(self) -> None:
        object.__setattr__(self, "probabilities", _as_probability_vector(self.probabilities))
        object.__setattr__(self, "objective", _objective(self.objective))
        _check_law(self.decay)
        if isinstance(self.decay, AdditiveDecay) and self.decay.n != self.probabilities.n:
            raise ValueError(
                f"decay has {self.decay.n} stages, expected {self.probabilities.n}"
            )


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse a scenario document (see module docstring for the format).

    Every validation failure names the offending field, with the entry index
    for per-item problems (e.g. ``probabilities[2] = 1.5 is outside [0, 1]``).
    """
    # deep nesting raises RecursionError; an integer of over 4,300 digits, ValueError
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"scenario document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("scenario document must be a JSON object")
    unknown = set(doc) - {"probabilities", "decay", "objective"}
    if unknown:
        raise ValueError(f"unknown scenario field(s): {_clip(', '.join(sorted(unknown)))}")

    if "probabilities" not in doc:
        raise ValueError("scenario is missing the 'probabilities' field")
    probabilities = ProbabilityVector(doc["probabilities"])

    if "decay" not in doc:
        raise ValueError("scenario is missing the 'decay' field")
    raw_decay = doc["decay"]
    if not isinstance(raw_decay, dict):
        raise ValueError("decay must be an object with a 'type' field")
    decay_type = raw_decay.get("type")
    # a membership test, not a lookup: an unhashable type must not raise TypeError
    if decay_type not in ("additive", "multiplicative"):
        raise ValueError(
            f"decay.type must be 'additive' or 'multiplicative', got {_echo(decay_type)}"
        )
    key = _LAW_FIELDS[decay_type]
    extra = set(raw_decay) - {"type", key}
    if extra:
        raise ValueError(f"unknown {decay_type} decay field(s): {_clip(', '.join(sorted(extra)))}")
    if key not in raw_decay:
        raise ValueError(f"{decay_type} decay requires a '{key}' field")
    if decay_type == "additive":
        decay: _DecaySpec = AdditiveDecay(raw_decay[key], probabilities.n)
    else:
        decay = MultiplicativeDecay(raw_decay[key])

    return ScenarioConfig(probabilities, decay, doc.get("objective", Objective.EXPECTED_SUCCESSES))


def serialize_scenario(config: ScenarioConfig) -> str:
    """Render a ScenarioConfig as a scenario document; exact round-trip.

    An additive law is written as its ``rate`` and a multiplicative one as
    its ``factor``, so every valid config has a document.
    """
    doc: dict[str, object] = {
        "probabilities": config.probabilities.probs.tolist(),
        "objective": config.objective.value,
    }
    law = "additive" if isinstance(config.decay, AdditiveDecay) else "multiplicative"
    key = _LAW_FIELDS[law]
    doc["decay"] = {"type": law, key: getattr(config.decay, key)}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
