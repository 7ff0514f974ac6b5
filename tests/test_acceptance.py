"""End-to-end acceptance checks.

Each test prints a single ``criterion N (name): PASS/FAIL`` line (visible
under ``pytest -s``) and then asserts, so the suite doubles as a go/no-go
checklist for the package's headline guarantees.
"""

import itertools
from pathlib import Path

import numpy as np
from oracles import prob_weakest_first_positive_quadrature

from decaysched import (
    AdditiveDecay,
    MultiplicativeDecay,
    Objective,
    PopulationModel,
    brute_force_optimal,
    evaluate_order,
    generate_figure_matrix,
    positivity_report,
    positivity_report_montecarlo,
    sort_order,
    success_count_pmf,
)
from decaysched.cli import _figure_csv

DATA_DIR = Path(__file__).parent / "data"

REFERENCE_MODEL = PopulationModel(n=13, low=0.5, high=1.0, decay_step=0.06)
REFERENCE_STRONGEST = 0.56**13
REFERENCE_WEAKEST = 0.9999677

MC_TRIALS = 10_000_000
MC_SEED = 90210


def _verdict(number: int, name: str, ok: bool) -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_worked_example_regression():
    vec_a = [0.8, 0.9, 0.7, 0.7]
    vec_b = [0.8, 0.9, 0.1, 0.2]
    decay = AdditiveDecay.linear(0.1, 4)
    cases = [
        (vec_a, [0, 1, 2, 3], 2.5, 0.128),
        (vec_a, sort_order(vec_a, "ascending"), 2.5, 0.1512),
        (vec_a, sort_order(vec_a, "descending"), 2.5, 0.126),
        (vec_b, [0, 1, 2, 3], 1.6, 0.0),
        (vec_b, sort_order(vec_b, "ascending"), 1.4, 0.0036),
        (vec_b, sort_order(vec_b, "descending"), 1.6, 0.0),
    ]
    ok = True
    for p0, order, expected, prob_all in cases:
        metrics = evaluate_order(p0, order, decay)
        ok = (
            ok
            and abs(metrics.expected_successes - expected) <= 1e-12
            and abs(metrics.prob_all_success - prob_all) <= 1e-12
        )
    _verdict(1, "worked-example regression", ok)


def test_criterion_2_closed_form_positivity():
    value = positivity_report(REFERENCE_MODEL).prob_strongest_first_positive
    ok = value == REFERENCE_STRONGEST and format(value, ".3g") == "0.000533"
    _verdict(2, "closed-form positivity", ok)


def test_criterion_3_quadrature_positivity():
    value = prob_weakest_first_positive_quadrature(REFERENCE_MODEL)
    ok = abs(value - REFERENCE_WEAKEST) <= 1e-5
    _verdict(3, "quadrature positivity", ok)


def test_criterion_4_monte_carlo_cross_check():
    weakest_ref = prob_weakest_first_positive_quadrature(REFERENCE_MODEL)
    report = positivity_report_montecarlo(REFERENCE_MODEL, MC_TRIALS, MC_SEED)
    ok = (
        abs(report.prob_weakest_first_positive - weakest_ref)
        <= 4.0 * report.weakest_first_std_error
        and abs(report.prob_strongest_first_positive - REFERENCE_STRONGEST)
        <= 4.0 * report.strongest_first_std_error
    )
    _verdict(4, "monte-carlo cross-check", ok)


def test_criterion_5_distribution_oracle():
    rng = np.random.default_rng(2025)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 13))
        probs = rng.uniform(0.0, 1.0, size=n)
        mass = success_count_pmf(probs).mass
        want = np.zeros(n + 1)
        for bits in itertools.product((0, 1), repeat=n):
            weight = 1.0
            for bit, p in zip(bits, probs):
                weight *= p if bit else (1.0 - p)
            want[sum(bits)] += weight
        ok = (
            ok
            and np.max(np.abs(mass - want)) <= 1e-12
            and abs(float(mass.sum()) - 1.0) <= 1e-12
        )
    _verdict(5, "distribution oracle", ok)


def test_criterion_6_optimality_properties():
    rng = np.random.default_rng(4242)
    n = 7
    ok = True
    for _ in range(200):
        p0 = rng.uniform(0.0, 1.0, n)
        additive = AdditiveDecay.linear(float(rng.uniform(0.0, 0.2)), n)
        multiplicative = MultiplicativeDecay(float(rng.uniform(0.5, 0.99)))

        # weakest-first attains the all-success optimum when nothing clamps
        _, best_all = brute_force_optimal(p0, additive, Objective.PROB_ALL_SUCCESS)
        asc = evaluate_order(p0, sort_order(p0, "ascending"), additive).prob_all_success
        if asc > 0.0:
            ok = ok and abs(asc - best_all) <= 1e-12
        else:
            ok = ok and asc <= best_all + 1e-12

        # strongest-first attains the expected-count optimum in both models
        for decay in (additive, multiplicative):
            _, best_exp = brute_force_optimal(p0, decay, Objective.EXPECTED_SUCCESSES)
            desc = evaluate_order(p0, sort_order(p0, "descending"), decay).expected_successes
            ok = ok and abs(desc - best_exp) <= 1e-12

        # all-success probability ignores the order under multiplicative decay
        _, best_mult_all = brute_force_optimal(p0, multiplicative, Objective.PROB_ALL_SUCCESS)
        identity_mult = evaluate_order(p0, np.arange(n), multiplicative).prob_all_success
        shuffled_mult = evaluate_order(p0, rng.permutation(n), multiplicative).prob_all_success
        ok = (
            ok
            and abs(identity_mult - best_mult_all) <= 1e-12
            and abs(shuffled_mult - best_mult_all) <= 1e-12
        )

        # expected count ignores the order when additive decay never clamps
        unclamped = AdditiveDecay.linear(float(rng.uniform(0.0, p0.min() / (n - 1))), n)
        base = evaluate_order(p0, np.arange(n), unclamped).expected_successes
        for _ in range(3):
            got = evaluate_order(p0, rng.permutation(n), unclamped).expected_successes
            ok = ok and abs(got - base) <= 1e-12
    _verdict(6, "optimality properties", ok)


def test_criterion_7_figure_matrix_reproduction():
    ok = True
    for seed in range(20):
        matrix = generate_figure_matrix(REFERENCE_MODEL, seed)
        p0 = matrix[0]
        want = np.maximum(p0[None, :] - 0.06 * np.arange(13)[:, None], 0.0)
        ok = (
            ok
            and np.array_equal(matrix, want)
            and (np.diff(matrix, axis=1) >= 0.0).all()
            and (np.diff(matrix, axis=0) <= 0.0).all()
        )
    golden = (DATA_DIR / "figure_seed1729.csv").read_text()
    pinned = generate_figure_matrix(REFERENCE_MODEL, 1729)
    ok = ok and _figure_csv(pinned) == golden
    _verdict(7, "figure matrix reproduction", ok)
