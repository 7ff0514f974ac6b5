"""Library results, bit for bit, against recorded values.

``data/library_results.json`` maps each case id below to its recorded
fields: scalars as ``float.hex``, orders as int lists and arrays as the
sha256 of their ``<f8`` bytes.  A change that is meant to keep results
identical must pass this file unchanged.  A change that alters results on
purpose records them again with ``PYTHONPATH=src python
tests/test_library_golden.py`` and says so.

The inputs are seeded: every n from 1 to 10 under both laws, with uniform
tables, tie-heavy tables on a 0.1 grid and steep steps that clamp, for the
exhaustive search under both objectives; ``evaluate_order`` at n = 4, 50
and 500 in four orders; and figure tables at the paper's n = 13.
"""

import hashlib
import json
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from decaysched import (
    AdditiveDecay,
    MultiplicativeDecay,
    Objective,
    PopulationModel,
    brute_force_optimal,
    evaluate_order,
    generate_figure_matrix,
    sort_order,
    stage_item_matrix,
)

RECORDING = Path(__file__).parent / "data" / "library_results.json"

LAWS = ("additive", "multiplicative")
# per law and table kind, the range of the additive rate or the multiplicative
# factor; the grid kind draws it, like the probabilities, from the 0.1 grid
STEPS = {
    "additive": {"uniform": (0.0, 0.1), "grid": (0.0, 0.3), "steep": (0.2, 0.6)},
    "multiplicative": {"uniform": (0.5, 0.95), "grid": (0.1, 0.9), "steep": (0.01, 0.2)},
}
TABLE_KINDS = ("uniform", "grid", "steep")
EVALUATE_SIZES = (4, 50, 500)
ORDERS = ("identity", "ascending", "descending", "shuffled")
# (low, high, decay_step) of the figure models, each drawn with five seeds
FIGURE_MODELS = ((0.0, 1.0, 0.05), (0.5, 1.0, 0.04), (0.2, 0.9, 0.1), (0.0, 1.0, 0.0))


def digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def table_inputs(n: int, law: str, kind: str):
    rng = np.random.default_rng([n, LAWS.index(law), TABLE_KINDS.index(kind)])
    low, high = STEPS[law][kind]
    if kind == "grid":
        p0 = rng.integers(0, 11, size=n) / 10.0
        step = float(rng.integers(round(low * 10), round(high * 10) + 1) / 10.0)
    else:
        p0 = rng.uniform(0.05, 1.0, size=n)
        step = float(rng.uniform(low, high))
    if law == "additive":
        return p0, AdditiveDecay.linear(step, n)
    return p0, MultiplicativeDecay(step)


def table_case(n: int, law: str, kind: str) -> dict:
    p0, decay = table_inputs(n, law, kind)
    fields = {"stage_item_matrix": digest(stage_item_matrix(p0, decay))}
    for objective in Objective:
        order, value = brute_force_optimal(p0, decay, objective)
        fields[f"brute_force_optimal.{objective.value}.order"] = [int(i) for i in order]
        fields[f"brute_force_optimal.{objective.value}.value"] = value.hex()
    return fields


def evaluate_case(n: int, law: str, order_name: str) -> dict:
    rng = np.random.default_rng([n, LAWS.index(law)])
    p0 = rng.uniform(0.05, 1.0, size=n)
    if law == "additive":
        # clamps up to about half the items
        decay = AdditiveDecay.linear(float(rng.uniform(0.2, 1.5)) / n, n)
    else:
        # the last stage keeps 1% to 50%
        decay = MultiplicativeDecay(float(np.exp(np.log(rng.uniform(0.01, 0.5)) / (n - 1))))
    order = {
        "identity": np.arange(n),
        "ascending": sort_order(p0, "ascending"),
        "descending": sort_order(p0, "descending"),
        "shuffled": rng.permutation(n),
    }[order_name]
    metrics = evaluate_order(p0, order, decay)
    return {
        "stage_probabilities": digest(metrics.stage_probabilities),
        "expected_successes": metrics.expected_successes.hex(),
        "prob_all_success": metrics.prob_all_success.hex(),
        "pmf.mass": digest(metrics.pmf.mass),
    }


def figure_case(low: float, high: float, decay_step: float, seed: int) -> dict:
    matrix = generate_figure_matrix(PopulationModel(13, low, high, decay_step), seed)
    return {"cells": digest(matrix)}


CASES = {
    **{
        f"table-n{n}-{law}-{kind}": partial(table_case, n, law, kind)
        for n in range(1, 11)
        for law in LAWS
        for kind in TABLE_KINDS
    },
    **{
        f"evaluate-n{n}-{law}-{order}": partial(evaluate_case, n, law, order)
        for n in EVALUATE_SIZES
        for law in LAWS
        for order in ORDERS
    },
    **{
        f"figure-low{low}-high{high}-step{step}-seed{seed}": partial(figure_case, low, high, step, seed)
        for low, high, step in FIGURE_MODELS
        for seed in range(5)
    },
}


def test_every_recorded_case_is_run():
    assert set(json.loads(RECORDING.read_text())) == set(CASES)


@pytest.mark.parametrize("case", CASES)
def test_results_match_recording(case):
    recorded = json.loads(RECORDING.read_text())[case]
    got = CASES[case]()
    assert set(got) == set(recorded), f"{case}: fields differ"
    differ = [name for name in recorded if got[name] != recorded[name]]
    assert not differ, f"{case}: {', '.join(differ)} differ from the recording"


if __name__ == "__main__":
    results = {case: compute() for case, compute in CASES.items()}
    RECORDING.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(results)} cases in {RECORDING}")
