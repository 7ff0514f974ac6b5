import ast
import dataclasses
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    MAX_QUADRATURE_DIMENSION,
    QuadratureDimensionError,
    active_ranks,
    prob_weakest_first_positive_exact,
    prob_weakest_first_positive_line_sum,
    prob_weakest_first_positive_low_zero,
    prob_weakest_first_positive_quadrature,
    prob_weakest_first_positive_steck,
    weakest_first_error_bound,
)
from scipy.integrate import dblquad, tplquad

import decaysched.analysis as analysis
from decaysched import (
    AdditiveDecay,
    MultiplicativeDecay,
    PopulationModel,
    positivity_report,
    positivity_report_montecarlo,
)
from decaysched.analysis import _count_positive_trials

# 13 items drawn on (0.5, 1) losing 0.06 per stage
REFERENCE_MODEL = PopulationModel(n=13, low=0.5, high=1.0, decay_step=0.06)


class TestPopulationModel:
    def test_valid_construction(self):
        model = PopulationModel(n=4, low=0.0, high=1.0, decay_step=0.2)
        assert model.n == 4

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError, match="positive integer"):
            PopulationModel(n=0, low=0.0, high=1.0, decay_step=0.1)
        with pytest.raises(ValueError, match="positive integer"):
            PopulationModel(n=True, low=0.0, high=1.0, decay_step=0.1)

    def test_n_is_at_most_its_public_limit(self):
        assert analysis.MAX_POPULATION_N == 10_000
        assert PopulationModel(10_000, 0.5, 1.0, 0.06).n == 10_000
        # refused as it is read, before anything of size n is allocated
        tracemalloc.start()
        try:
            for n, shown in ((10_001, "10001"), (10**19, "10000000000000000000")):
                with pytest.raises(ValueError) as info:
                    PopulationModel(n, 0.5, 1.0, 0.06)
                assert str(info.value) == f"n must be at most 10000, got {shown}"
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    @pytest.mark.parametrize(
        "low,high", [(0.5, 0.5), (0.7, 0.5), (-0.1, 0.5), (0.5, 1.1)]
    )
    def test_rejects_bad_bounds(self, low, high):
        with pytest.raises(ValueError, match="bounds"):
            PopulationModel(n=3, low=low, high=high, decay_step=0.1)

    def test_rejects_negative_decay(self):
        with pytest.raises(ValueError, match="decay_step"):
            PopulationModel(n=3, low=0.0, high=1.0, decay_step=-0.01)
        with pytest.raises(ValueError, match="decay_step must be a finite number"):
            PopulationModel(n=3, low=0.0, high=1.0, decay_step=float("inf"))


# a bool is not a number here, though Python compares it as 0 or 1
@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: PopulationModel(n=13, low=False, high=1.0, decay_step=0.06), "bounds must satisfy"),
        (lambda: PopulationModel(n=13, low=0.0, high=True, decay_step=0.06), "bounds must satisfy"),
        (lambda: PopulationModel(n=13, low=0.5, high=1.0, decay_step=True),
         "decay_step must be a finite number >= 0, got True"),
        (lambda: AdditiveDecay(True, 3), "decay rate must be a finite number >= 0, got True"),
        (lambda: AdditiveDecay(False, 3), "decay rate must be a finite number >= 0, got False"),
        (lambda: MultiplicativeDecay(True), "strictly between 0 and 1, got True"),
        (lambda: MultiplicativeDecay(False), "strictly between 0 and 1, got False"),
    ],
    ids=["low", "high", "decay_step", "rate", "additive", "factor-true", "factor-false"],
)
def test_rejects_bool_as_number(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestThresholds:
    """The stages that can fail, by the oracles' rule and in the package's report."""

    def test_active_thresholds_reference_model(self):
        assert active_ranks(REFERENCE_MODEL) == [10, 11, 12, 13]
        assert positivity_report(REFERENCE_MODEL).method == "analytic"

    def test_no_decay_means_no_active_thresholds(self):
        model = PopulationModel(n=5, low=0.0, high=1.0, decay_step=0.0)
        assert active_ranks(model) == []
        assert positivity_report(model).method == "analytic"

    def test_zero_low_activates_every_decayed_stage(self):
        model = PopulationModel(n=4, low=0.0, high=1.0, decay_step=0.1)
        assert active_ranks(model) == [2, 3, 4]
        assert positivity_report(model).method == "analytic"

    def test_threshold_equal_to_low_is_not_active(self):
        # strict inequality: a draw exceeds `low` almost surely
        model = PopulationModel(n=2, low=0.5, high=1.0, decay_step=0.5)
        assert active_ranks(model) == []
        report = positivity_report(model)
        assert report.method == "analytic"
        assert report.prob_weakest_first_positive == 1.0

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("low_stage", range(0, 5))
    def test_report_matches_oracle_at_threshold_equal_to_low(self, n, low_stage):
        # dyadic values: stage low_stage + 1 has a threshold exactly equal to low
        step = 0.125
        model = PopulationModel(n=n, low=low_stage * step, high=1.0, decay_step=step)
        report = positivity_report(model)
        assert report.method == "analytic"
        exact = prob_weakest_first_positive_exact(model)
        error = abs(Fraction(report.prob_weakest_first_positive) - exact)
        assert error <= Fraction(1e-13) * exact


def test_oracles_import_only_the_model_from_the_package():
    # the oracles find the stages that can fail themselves, so that a wrong
    # rule in the package cannot pass both the package and its oracles
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("decaysched"):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("decaysched") for alias in node.names)
    assert imported == {"PopulationModel"}


class TestStrongestFirstClosedForm:
    def test_reference_model_value(self):
        value = positivity_report(REFERENCE_MODEL).prob_strongest_first_positive
        assert value == 0.56**13
        assert format(value, ".3g") == "0.000533"

    def test_two_item_value(self):
        model = PopulationModel(n=2, low=0.0, high=1.0, decay_step=0.3)
        assert positivity_report(model).prob_strongest_first_positive == 0.7**2

    def test_two_item_narrow_interval(self):
        # q = (1 - 0.6) / (1 - 0.5) = 0.8, squared
        model = PopulationModel(n=2, low=0.5, high=1.0, decay_step=0.6)
        value = positivity_report(model).prob_strongest_first_positive
        assert value == pytest.approx(0.64, abs=1e-12)

    def test_no_decay_gives_certainty(self):
        model = PopulationModel(n=6, low=0.2, high=0.9, decay_step=0.0)
        assert positivity_report(model).prob_strongest_first_positive == 1.0

    def test_overwhelming_decay_gives_zero(self):
        model = PopulationModel(n=3, low=0.5, high=0.9, decay_step=0.5)
        assert positivity_report(model).prob_strongest_first_positive == 0.0


class TestWeakestFirstQuadrature:
    def test_no_active_thresholds_returns_one(self):
        model = PopulationModel(n=5, low=0.5, high=1.0, decay_step=0.05)
        assert prob_weakest_first_positive_quadrature(model) == 1.0

    def test_single_active_threshold_matches_closed_form(self):
        # only the largest draw is constrained: P = 1 - F(c)^n
        model = PopulationModel(n=3, low=0.5, high=1.0, decay_step=0.3)
        got = prob_weakest_first_positive_quadrature(model)
        assert got == pytest.approx(1.0 - 0.2**3, abs=1e-9)

    def test_two_item_half_decay(self):
        # second draw served must beat 0.5: P(max > 0.5) = 1 - 0.5^2
        model = PopulationModel(n=2, low=0.0, high=1.0, decay_step=0.5)
        got = prob_weakest_first_positive_quadrature(model)
        assert got == pytest.approx(0.75, abs=1e-9)

    def test_two_active_thresholds_match_independent_double_integral(self):
        model = PopulationModel(n=4, low=0.4, high=1.0, decay_step=0.22)
        assert active_ranks(model) == [3, 4]
        n, a, b = model.n, model.low, model.high
        w = b - a
        ref, _ = dblquad(
            lambda y, x: n * (n - 1) * ((y - a) / w) ** (n - 2) / w / w,
            0.66, b,
            lambda x: 0.44, lambda x: x,
        )
        got = prob_weakest_first_positive_quadrature(model)
        assert got == pytest.approx(ref, abs=1e-7)

    def test_three_active_thresholds_match_independent_triple_integral(self):
        model = PopulationModel(n=5, low=0.3, high=1.0, decay_step=0.17)
        assert active_ranks(model) == [3, 4, 5]
        a, b = model.low, model.high
        w = b - a
        ref, _ = tplquad(
            lambda z, y, x: 60.0 * ((z - a) / w) ** 2 / w**3,
            0.68, b,
            lambda x: 0.51, lambda x: x,
            lambda x, y: 0.34, lambda x, y: y,
        )
        got = prob_weakest_first_positive_quadrature(model)
        assert got == pytest.approx(ref, abs=1e-7)

    def test_reference_model_value(self):
        got = prob_weakest_first_positive_quadrature(REFERENCE_MODEL)
        assert got == pytest.approx(0.9999677, abs=1e-5)

    def test_impossible_final_stage_returns_zero(self):
        # last threshold reaches the upper bound: some item always hits zero
        model = PopulationModel(n=3, low=0.5, high=0.9, decay_step=0.5)
        assert prob_weakest_first_positive_quadrature(model) == 0.0

    def test_dimension_limit(self):
        model = PopulationModel(n=8, low=0.0, high=1.0, decay_step=0.05)
        assert len(active_ranks(model)) == 7
        with pytest.raises(QuadratureDimensionError, match="montecarlo"):
            prob_weakest_first_positive_quadrature(model)
        assert MAX_QUADRATURE_DIMENSION == 6

    def test_five_active_thresholds_agree_with_montecarlo(self):
        model = PopulationModel(n=6, low=0.0, high=1.0, decay_step=0.16)
        assert len(active_ranks(model)) == 5
        exact = prob_weakest_first_positive_quadrature(model)
        report = positivity_report_montecarlo(model, 200_000, 8)
        est, se = report.prob_weakest_first_positive, report.weakest_first_std_error
        assert abs(est - exact) <= 5.0 * se


@st.composite
def few_threshold_models(draw):
    """Population models with at most three active thresholds and n <= 40."""
    m = draw(st.integers(0, 3))
    n = draw(st.integers(m + 1, 40))
    low = draw(st.floats(0.0, 0.9))
    high = draw(st.floats(low + 0.01, 1.0))
    # a step in (lo, hi] puts exactly the top m stage thresholds above low
    lo = low / (n - m) if m else 0.0
    hi = low / (n - m - 1) if n - m - 1 else lo + high
    step = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
    model = PopulationModel(n=n, low=low, high=high, decay_step=step)
    assume(len(active_ranks(model)) == m)  # rounding at the band edges
    return model


@st.composite
def population_models(draw):
    """Population models with 2 <= n <= 40 whose last stage alone fails with a
    probability from 1% to 99%, so that most values are neither 0 nor 1."""
    # whole percentages: derandomized Hypothesis spreads them wider than floats;
    # it draws small integers most often, and n = 40 is the case to cover
    n = 42 - draw(st.integers(2, 40))
    low = draw(st.integers(0, 90))
    high = draw(st.integers(low + 1, 100))
    fails = draw(st.integers(1, 99)) / 100
    # the largest of n mapped draws is at or below fails**(1/n) with probability fails
    last = (low + (high - low) * fails ** (1.0 / n)) / 100
    return PopulationModel(n=n, low=low / 100, high=high / 100, decay_step=last / (n - 1))


@st.composite
def any_population_models(draw, max_n=200):
    """Any valid population model with n <= max_n.

    A third of the draws set the last stage's failure probability, and a
    third its threshold's place in (low, high), in whole percentages.  The
    first give values spread over (0, 1); the second many within rounding
    of 1, where an unclamped value would exceed it.  The rest draw the
    bounds and the step as raw floats, from no decay to thresholds that
    overflow.
    """
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["fails", "place", "raw"]))
    if kind == "raw":
        low = draw(st.floats(0.0, 1.0, exclude_max=True))
        high = draw(st.floats(low, 1.0, exclude_min=True))
        step = draw(st.floats(0.0, 1.7976931348623157e308))
        return PopulationModel(n=n, low=low, high=high, decay_step=step)
    low = draw(st.integers(0, 99))
    high = draw(st.integers(low + 1, 100))
    place = draw(st.integers(0, 100)) / 100
    if kind == "fails":
        # the largest of n mapped draws is at or below place**(1/n) with probability place
        place **= 1.0 / n
    last = (low + (high - low) * place) / 100
    return PopulationModel(n=n, low=low / 100, high=high / 100, decay_step=last / max(n - 1, 1))


def assert_matches_exact_oracle(model):
    # tighter than the absolute bound that _weakest_first states, and met on
    # these models, whose last stage alone fails with at most 99% probability
    exact = prob_weakest_first_positive_exact(model)
    error = abs(Fraction(positivity_report(model).prob_weakest_first_positive) - exact)
    assert error <= Fraction(1e-13) * exact + Fraction(1e-140)


class TestWeakestFirstRecursion:
    def test_reference_model_matches_exact_oracle(self):
        assert_matches_exact_oracle(REFERENCE_MODEL)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(population_models())
    def test_matches_exact_oracle(self, model):
        assert_matches_exact_oracle(model)

    @pytest.mark.parametrize(
        "model",
        [
            REFERENCE_MODEL,
            PopulationModel(n=6, low=0.0, high=1.0, decay_step=0.16),
            PopulationModel(n=3, low=0.5, high=1.0, decay_step=0.6),
            PopulationModel(n=20, low=0.3, high=0.9, decay_step=0.04),
        ],
        ids=["reference", "m5", "zero", "m12"],
    )
    def test_steck_determinant_equals_exact_oracle(self, model):
        # two exact oracles, one rational number
        assert prob_weakest_first_positive_steck(model) == prob_weakest_first_positive_exact(model)

    @pytest.mark.parametrize(
        "model",
        [
            PopulationModel(n=40, low=0.0, high=1.0, decay_step=0.9 / 40),
            PopulationModel(n=120, low=0.0, high=1.0, decay_step=0.9 / 120),
            PopulationModel(n=120, low=0.3, high=0.9, decay_step=0.55 / 119),
            PopulationModel(n=150, low=0.0, high=0.1, decay_step=0.0005),
        ],
        ids=["n40", "n120", "n120-narrow", "n150"],
    )
    def test_matches_steck_determinant_within_documented_error(self, model):
        # P > 0.26 at each model, where the absolute bound that _weakest_first
        # states lies below 5e-14 * P
        exact = prob_weakest_first_positive_steck(model)
        error = abs(Fraction(positivity_report(model).prob_weakest_first_positive) - exact)
        assert error <= Fraction(5e-14) * exact

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(any_population_models())
    def test_matches_line_sum_within_stated_bound(self, model):
        exact = prob_weakest_first_positive_line_sum(model)
        value = positivity_report(model).prob_weakest_first_positive
        assert abs(Fraction(value) - exact) <= weakest_first_error_bound(model.n, value)

    # the exact one-term value at low = 0 reaches every n, where the sums stop near 600
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        n=st.integers(2, 10_000),
        high=st.sampled_from([1.0, 0.5]) | st.floats(1e-3, 1.0),
        reach=st.floats(0.0, 1.1),
    )
    def test_matches_low_zero_oracle_within_stated_bound(self, n, high, reach):
        # the last threshold d * (n - 1) lies near reach * high, so P spans [0, 1]
        d = reach * high / (n - 1)
        exact = prob_weakest_first_positive_low_zero(n, high, d)
        value = positivity_report(PopulationModel(n, 0.0, high, d)).prob_weakest_first_positive
        assert abs(Fraction(value) - exact) <= weakest_first_error_bound(n, value)

    @pytest.mark.parametrize(
        "model",
        [
            PopulationModel(n=6, low=0.5, high=1.0, decay_step=0.125),
            PopulationModel(n=12, low=0.25, high=0.75, decay_step=1 / 32),
            PopulationModel(n=40, low=0.0, high=1.0, decay_step=1 / 64),
            PopulationModel(n=100, low=0.0, high=0.5, decay_step=1 / 256),
        ],
        ids=["m1", "n12", "n40", "n100"],
    )
    def test_line_sum_equals_steck_determinant_on_dyadic_lines(self, model):
        # dyadic steps and bounds put the float boundaries exactly on one line
        line_sum = prob_weakest_first_positive_line_sum(model)
        assert line_sum == prob_weakest_first_positive_steck(model)

    def test_line_sum_matches_steck_determinant_within_stated_bound(self):
        # elsewhere the float boundaries stray from one line by their rounding
        models = _random_models(26, 20, max_active=40, min_active=1, max_n=40)
        for model in [REFERENCE_MODEL, *models]:
            exact = prob_weakest_first_positive_steck(model)
            line_sum = prob_weakest_first_positive_line_sum(model)
            assert abs(line_sum - exact) <= weakest_first_error_bound(model.n, float(exact))

    def test_no_active_thresholds_returns_one(self):
        model = PopulationModel(n=5, low=0.5, high=1.0, decay_step=0.05)
        assert active_ranks(model) == []
        assert positivity_report(model).prob_weakest_first_positive == 1.0

    @pytest.mark.parametrize("step", [0.5, 0.6])
    def test_last_threshold_at_or_above_high_returns_zero(self, step):
        # the last threshold is 2 * step >= high: the largest draw never clears it
        model = PopulationModel(n=3, low=0.5, high=1.0, decay_step=step)
        assert positivity_report(model).prob_weakest_first_positive == 0.0

    def test_single_active_threshold_matches_closed_form(self):
        model = PopulationModel(n=3, low=0.5, high=1.0, decay_step=0.3)
        value = positivity_report(model).prob_weakest_first_positive
        assert value == pytest.approx(1.0 - 0.2**3, abs=1e-14)

    def test_two_item_half_decay(self):
        model = PopulationModel(n=2, low=0.0, high=1.0, decay_step=0.5)
        value = positivity_report(model).prob_weakest_first_positive
        assert value == pytest.approx(0.75, abs=1e-14)

    def test_two_active_thresholds_match_independent_double_integral(self):
        model = PopulationModel(n=4, low=0.4, high=1.0, decay_step=0.22)
        w = 0.6
        ref, _ = dblquad(
            lambda y, x: 12.0 * ((y - 0.4) / w) ** 2 / w / w,
            0.66, 1.0,
            lambda x: 0.44, lambda x: x,
        )
        assert positivity_report(model).prob_weakest_first_positive == pytest.approx(ref, abs=1e-7)

    def test_three_active_thresholds_match_independent_triple_integral(self):
        model = PopulationModel(n=5, low=0.3, high=1.0, decay_step=0.17)
        w = 0.7
        ref, _ = tplquad(
            lambda z, y, x: 60.0 * ((z - 0.3) / w) ** 2 / w**3,
            0.68, 1.0,
            lambda x: 0.51, lambda x: x,
            lambda x, y: 0.34, lambda x, y: y,
        )
        assert positivity_report(model).prob_weakest_first_positive == pytest.approx(ref, abs=1e-7)

    # near-certain models make quad warn of roundoff; agreement is still checked
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(few_threshold_models())
    def test_matches_quadrature_up_to_three_thresholds(self, model):
        exact = positivity_report(model).prob_weakest_first_positive
        assert exact == pytest.approx(prob_weakest_first_positive_quadrature(model), abs=1e-9)

    @pytest.mark.parametrize(
        "model",
        [REFERENCE_MODEL, PopulationModel(n=6, low=0.0, high=1.0, decay_step=0.16)],
        ids=["m4-reference", "m5"],
    )
    def test_matches_quadrature_at_four_and_five_thresholds(self, model):
        exact = positivity_report(model).prob_weakest_first_positive
        assert exact == pytest.approx(prob_weakest_first_positive_quadrature(model), abs=1e-9)

    @pytest.mark.parametrize(
        "model,trials",
        [
            (PopulationModel(n=20, low=0.3, high=0.9, decay_step=0.04), 200_000),
            (PopulationModel(n=200, low=0.0, high=1.0, decay_step=0.004), 20_000),
        ],
        ids=["m12", "n200"],
    )
    def test_beyond_quadrature_agrees_with_montecarlo(self, model, trials):
        assert len(active_ranks(model)) > MAX_QUADRATURE_DIMENSION
        exact = positivity_report(model).prob_weakest_first_positive
        report = positivity_report_montecarlo(model, trials, 31)
        est, se = report.prob_weakest_first_positive, report.weakest_first_std_error
        assert 0.0 < se
        assert abs(est - exact) <= 5.0 * se

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 60),
        st.floats(0.0, 0.9),
        st.floats(0.01, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_non_increasing_in_decay_step(self, n, low, high_frac, u, v):
        high = low + high_frac * (1.0 - low)
        assume(high > low)
        top = 1.2 * high / max(n - 1, 1)
        smaller, larger = sorted((u * top, v * top))
        value = lambda step: positivity_report(
            PopulationModel(n=n, low=low, high=high, decay_step=step)
        ).prob_weakest_first_positive
        assert value(larger) <= value(smaller) + 1e-12


class TestMonteCarlo:
    def test_deterministic_for_fixed_seed(self):
        a = positivity_report_montecarlo(REFERENCE_MODEL, 20_000, 123)
        b = positivity_report_montecarlo(REFERENCE_MODEL, 20_000, 123)
        assert a == b

    def test_chunking_does_not_change_the_stream(self, monkeypatch):
        # 999 draws give 76-row blocks at n = 13 and 142-row blocks at n = 7:
        # neither n divides that budget, nor either block its trial count;
        # a budget of one draw gives one-row blocks
        mixed = PopulationModel(n=7, low=0.0, high=1.0, decay_step=0.08)
        for model, trials, elements in (
            (REFERENCE_MODEL, 25_000, 999),
            (mixed, 1_001, 999),
            (mixed, 1_001, 1),
        ):
            before = positivity_report_montecarlo(model, trials, 3)
            with monkeypatch.context() as patch:
                patch.setattr(analysis, "_MC_ELEMENTS", elements)
                after = positivity_report_montecarlo(model, trials, 3)
            assert before == after

    def test_block_memory_does_not_grow_with_n(self):
        # 20,000 trials of 1,000 draws in one block would take 160 MB
        model = PopulationModel(n=1000, low=0.5, high=1.0, decay_step=0.0006)
        tracemalloc.start()
        try:
            positivity_report_montecarlo(model, 20_000, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_agrees_with_closed_form_strongest(self):
        model = PopulationModel(n=2, low=0.0, high=1.0, decay_step=0.3)
        report = positivity_report_montecarlo(model, 100_000, 17)
        est, se = report.prob_strongest_first_positive, report.strongest_first_std_error
        assert abs(est - 0.49) <= 5.0 * se

    def test_agrees_with_quadrature_weakest(self):
        model = PopulationModel(n=2, low=0.0, high=1.0, decay_step=0.3)
        report = positivity_report_montecarlo(model, 100_000, 17)
        est, se = report.prob_weakest_first_positive, report.weakest_first_std_error
        assert abs(est - 0.91) <= 5.0 * se

    def test_certain_positivity(self):
        model = PopulationModel(n=4, low=0.5, high=1.0, decay_step=0.0)
        report = positivity_report_montecarlo(model, 1_000, 0)
        assert report.prob_weakest_first_positive == report.prob_strongest_first_positive == 1.0
        assert report.weakest_first_std_error == report.strongest_first_std_error == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="trials"):
            positivity_report_montecarlo(REFERENCE_MODEL, 0, 0)

    @pytest.mark.parametrize("trials", [math.inf, math.nan, 2.5, True, 0])
    def test_rejects_trials_that_are_not_positive_integers(self, trials):
        # an infinite count would never run out: the block loop subtracts from it
        with pytest.raises(ValueError, match=f"trials must be a positive integer, got {trials}"):
            positivity_report_montecarlo(REFERENCE_MODEL, trials, 0)

    @pytest.mark.parametrize(
        "model,trials,shown",
        [
            (PopulationModel(3, 0.5, 1.0, 0.1), 10**5000, "<int of 5001 digits>"),
            (REFERENCE_MODEL, 76_923_077, "76923077"),
            (PopulationModel(10_000, 0.5, 1.0, 0.0), 100_001, "100001"),
        ],
        ids=["huge", "limit-plus-one-n13", "limit-plus-one-n10000"],
    )
    def test_refuses_more_than_the_draw_budget_before_drawing(self, model, trials, shown,
                                                               monkeypatch):
        # past 10**9 draws a call would run for minutes, or for ever
        counted = []

        def count(draws, thresholds):
            counted.append(len(draws))
            raise AssertionError("a block was counted")

        monkeypatch.setattr(analysis, "_count_positive_trials", count)
        limit = analysis.MAX_SIMULATED_DRAWS // model.n
        message = (
            f"trials must be at most {limit} at n = {model.n} "
            f"(1000000000 draws in all), got {shown}"
        )
        with pytest.raises(ValueError) as raised:
            positivity_report_montecarlo(model, trials, 0)
        assert (str(raised.value), counted) == (message, [])

    def test_accepts_numpy_integer_trials(self):
        report = positivity_report_montecarlo(REFERENCE_MODEL, np.int64(1_000), 0)
        assert report == positivity_report_montecarlo(REFERENCE_MODEL, 1_000, 0)

    @pytest.mark.parametrize("seed", [None, True, 1.0, -1, np.int64(-1), "1"])
    def test_rejects_seeds_that_are_not_non_negative_integers(self, seed):
        # None would draw fresh OS entropy, so the report could not be reproduced
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got "):
            positivity_report_montecarlo(REFERENCE_MODEL, 1_000, seed)

    def test_accepts_numpy_integer_seeds(self):
        report = positivity_report_montecarlo(REFERENCE_MODEL, 1_000, 7)
        assert positivity_report_montecarlo(REFERENCE_MODEL, 1_000, np.int64(7)) == report
        assert positivity_report_montecarlo(REFERENCE_MODEL, 1_000, np.uint8(7)) == report

    # PositivityReport checks nothing, so this is the simulated report's only gate
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(any_population_models(max_n=50), st.integers(1, 2_000), st.integers(0, 2**32))
    def test_report_is_a_valid_record(self, model, trials, seed):
        report = positivity_report_montecarlo(model, trials, seed)
        assert report.method == "montecarlo"
        for p, std_error in (
            (report.prob_strongest_first_positive, report.strongest_first_std_error),
            (report.prob_weakest_first_positive, report.weakest_first_std_error),
        ):
            assert 0.0 <= p <= 1.0
            assert math.isfinite(std_error)
            assert std_error == math.sqrt(p * (1.0 - p) / trials)

    def test_standard_error_formula(self):
        # each strategy's error comes from its own estimate; the second
        # model's two estimates (near 0.91 and 0.49) give errors 2x apart
        trials = 10_000
        for model in (REFERENCE_MODEL, PopulationModel(n=2, low=0.0, high=1.0, decay_step=0.3)):
            report = positivity_report_montecarlo(model, trials, 5)
            for est, se in (
                (report.prob_weakest_first_positive, report.weakest_first_std_error),
                (report.prob_strongest_first_positive, report.strongest_first_std_error),
            ):
                assert se == pytest.approx((est * (1 - est) / trials) ** 0.5, abs=1e-15)


class TestPositivityReport:
    def test_reference_model_is_analytic(self):
        report = positivity_report(REFERENCE_MODEL)
        assert report.method == "analytic"
        assert report.strongest_first_std_error == report.weakest_first_std_error == 0.0
        assert report.prob_strongest_first_positive == 0.56**13
        assert report.prob_weakest_first_positive == pytest.approx(0.9999677, abs=1e-5)
        # serving the weak end first is overwhelmingly safer here
        assert report.prob_weakest_first_positive > report.prob_strongest_first_positive

    def test_undecayed_model_is_analytic(self):
        report = positivity_report(PopulationModel(n=5, low=0.5, high=1.0, decay_step=0.02))
        assert report.method == "analytic"
        assert report.prob_strongest_first_positive == 1.0
        assert report.prob_weakest_first_positive == 1.0

    def test_montecarlo_report_matches_direct_calls(self):
        # the report's blocks draw the same stream as one block of every trial
        model, trials = REFERENCE_MODEL, 20_000
        report = positivity_report_montecarlo(model, trials, 77)
        draws = np.random.default_rng(77).uniform(model.low, model.high, size=(trials, model.n))
        thresholds = AdditiveDecay(model.decay_step, model.n).decay_per_stage
        ascending, descending = _count_positive_trials(draws, thresholds)
        p_w, p_s = ascending / trials, descending / trials
        assert report.method == "montecarlo"
        assert report.prob_weakest_first_positive == p_w
        assert report.prob_strongest_first_positive == p_s
        assert report.weakest_first_std_error == math.sqrt(p_w * (1.0 - p_w) / trials)
        assert report.strongest_first_std_error == math.sqrt(p_s * (1.0 - p_s) / trials)

    # PositivityReport checks nothing, so these are the report's only gates
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(any_population_models())
    @example(PopulationModel(n=5, low=0.5, high=1.0, decay_step=0.02))
    @example(PopulationModel(n=3, low=0.0, high=1.0, decay_step=1e308))
    @example(PopulationModel(n=1, low=0.0, high=1.0, decay_step=0.0))
    def test_deterministic_report_is_a_valid_record(self, model):
        report = positivity_report(model)
        values = report.prob_strongest_first_positive, report.prob_weakest_first_positive
        assert all(0.0 <= value <= 1.0 for value in values)
        assert report.method == "analytic"
        if not active_ranks(model):
            assert values == (1.0, 1.0)
        assert report.strongest_first_std_error == 0.0
        assert report.weakest_first_std_error == 0.0


def _random_models(seed, count, max_active, min_active=0, max_n=8):
    """Random valid population models whose active-threshold count is bounded."""
    rng = np.random.default_rng(seed)
    models = []
    while len(models) < count:
        n = int(rng.integers(2, max_n + 1))
        low = float(rng.uniform(0.0, 0.7))
        high = float(rng.uniform(low + 0.1, 1.0))
        step = float(rng.uniform(0.0, 1.2 * high / (n - 1)))
        model = PopulationModel(n=n, low=low, high=high, decay_step=step)
        if min_active <= len(active_ranks(model)) <= max_active:
            models.append(model)
    return models


class TestRandomModelInvariants:
    def test_weakest_first_dominates_strongest_first(self):
        # clearing the hardest threshold with the weakest draw implies every
        # other constraint, so ascending order is never worse
        for model in _random_models(20250819, 12, max_active=4):
            weakest = prob_weakest_first_positive_quadrature(model)
            strongest = positivity_report(model).prob_strongest_first_positive
            assert weakest + 1e-9 >= strongest

    def test_quadrature_and_closed_form_agree_with_montecarlo(self):
        trials = 1_000_000
        for i, model in enumerate(_random_models(555, 3, max_active=4)):
            weakest = prob_weakest_first_positive_quadrature(model)
            strongest = positivity_report(model).prob_strongest_first_positive
            report = positivity_report_montecarlo(model, trials, seed=9000 + i)
            for expected, est, se in (
                (weakest, report.prob_weakest_first_positive, report.weakest_first_std_error),
                (strongest, report.prob_strongest_first_positive,
                 report.strongest_first_std_error),
            ):
                if not 0.05 <= expected <= 0.95:
                    continue
                assert abs(est - expected) <= 4.0 * se + 1e-9

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(any_population_models(max_n=10**4))
    @example(PopulationModel(n=10**4, low=0.0, high=1.0, decay_step=0.9e-4))
    def test_weakest_first_dominates_strongest_first_up_to_n_10000(self, model):
        report = positivity_report(model)
        weakest = report.prob_weakest_first_positive
        assert report.prob_strongest_first_positive <= weakest + weakest_first_error_bound(
            model.n, weakest
        )

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        any_population_models(max_n=10**4),
        st.sampled_from(["low", "high", "decay_step"]),
        st.integers(1, 12).map(lambda k: 10.0**-k) | st.floats(0.0, 1.0, exclude_max=True),
    )
    @example(PopulationModel(n=10**4, low=0.02, high=1.0, decay_step=0.7e-4), "high", 1e-9)
    @example(PopulationModel(n=10**4, low=0.02, high=1.0, decay_step=0.7e-4), "decay_step", 1e-8)
    def test_weakest_first_is_monotone_up_to_n_10000(self, model, field, t):
        # weakest-first does not decrease in low or high, nor increase in
        # decay_step, within the stated bound of each of the two values
        if field == "low":
            moved = dataclasses.replace(model, low=model.low + t * (model.high - model.low))
        elif field == "high":
            moved = dataclasses.replace(model, high=model.high + t * (1.0 - model.high))
        else:
            assume(model.decay_step * (1.0 + t) < math.inf)
            moved = dataclasses.replace(model, decay_step=model.decay_step * (1.0 + t))
        before = positivity_report(model).prob_weakest_first_positive
        after = positivity_report(moved).prob_weakest_first_positive
        slack = weakest_first_error_bound(model.n, before) + weakest_first_error_bound(
            model.n, after
        )
        if field == "decay_step":
            assert after <= before + slack
        else:
            assert after >= before - slack

    def test_recursion_dominates_strongest_first(self):
        for model in _random_models(20250819, 40, max_active=40, max_n=40):
            report = positivity_report(model)
            weakest = report.prob_weakest_first_positive
            assert weakest + 1e-12 >= report.prob_strongest_first_positive

    def test_recursion_matches_quadrature(self):
        for model in _random_models(20250819, 12, max_active=4):
            exact = positivity_report(model).prob_weakest_first_positive
            assert exact == pytest.approx(prob_weakest_first_positive_quadrature(model), abs=1e-9)

    def test_recursion_agrees_with_montecarlo_beyond_quadrature(self):
        # keep models whose answer is neither near 0 nor near 1, where a
        # Monte Carlo estimate can tell a wrong value apart
        models = [
            model
            for model in _random_models(555, 200, max_active=40,
                                        min_active=MAX_QUADRATURE_DIMENSION + 1, max_n=40)
            if 0.05 <= positivity_report(model).prob_weakest_first_positive <= 0.95
        ][:3]
        assert len(models) == 3
        for i, model in enumerate(models):
            expected = positivity_report(model).prob_weakest_first_positive
            report = positivity_report_montecarlo(model, 200_000, seed=9000 + i)
            est, se = report.prob_weakest_first_positive, report.weakest_first_std_error
            assert abs(est - expected) <= 4.0 * se + 1e-9
