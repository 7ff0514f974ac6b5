import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    MAX_QUADRATURE_DIMENSION,
    QuadratureDimensionError,
    prob_weakest_first_positive_exact,
    prob_weakest_first_positive_quadrature,
)
from scipy.integrate import dblquad, tplquad

import decaysched.analysis as analysis
from decaysched import (
    PopulationModel,
    PositivityReport,
    active_thresholds,
    positivity_report,
    positivity_report_montecarlo,
    prob_positive_montecarlo,
    prob_strongest_first_positive,
    prob_weakest_first_positive,
    stage_thresholds,
)

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


class TestThresholds:
    def test_stage_thresholds_exact(self):
        model = PopulationModel(n=4, low=0.0, high=1.0, decay_step=0.06)
        np.testing.assert_array_equal(stage_thresholds(model), 0.06 * np.arange(4))

    def test_active_thresholds_reference_model(self):
        active = active_thresholds(REFERENCE_MODEL)
        assert [rank for rank, _ in active] == [10, 11, 12, 13]
        np.testing.assert_allclose(
            [t for _, t in active], [0.54, 0.60, 0.66, 0.72], rtol=0.0, atol=1e-12
        )

    def test_no_decay_means_no_active_thresholds(self):
        model = PopulationModel(n=5, low=0.0, high=1.0, decay_step=0.0)
        assert active_thresholds(model) == []

    def test_zero_low_activates_every_decayed_stage(self):
        model = PopulationModel(n=4, low=0.0, high=1.0, decay_step=0.1)
        assert [rank for rank, _ in active_thresholds(model)] == [2, 3, 4]

    def test_threshold_equal_to_low_is_not_active(self):
        # strict inequality: a draw exceeds `low` almost surely
        model = PopulationModel(n=2, low=0.5, high=1.0, decay_step=0.5)
        assert active_thresholds(model) == []


class TestStrongestFirstClosedForm:
    def test_reference_model_value(self):
        value = prob_strongest_first_positive(REFERENCE_MODEL)
        assert value == 0.56**13
        assert format(value, ".3g") == "0.000533"

    def test_two_item_value(self):
        model = PopulationModel(n=2, low=0.0, high=1.0, decay_step=0.3)
        assert prob_strongest_first_positive(model) == 0.7**2

    def test_two_item_narrow_interval(self):
        # q = (1 - 0.6) / (1 - 0.5) = 0.8, squared
        model = PopulationModel(n=2, low=0.5, high=1.0, decay_step=0.6)
        assert prob_strongest_first_positive(model) == pytest.approx(0.64, abs=1e-12)

    def test_no_decay_gives_certainty(self):
        model = PopulationModel(n=6, low=0.2, high=0.9, decay_step=0.0)
        assert prob_strongest_first_positive(model) == 1.0

    def test_overwhelming_decay_gives_zero(self):
        model = PopulationModel(n=3, low=0.5, high=0.9, decay_step=0.5)
        assert prob_strongest_first_positive(model) == 0.0


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
        assert [r for r, _ in active_thresholds(model)] == [3, 4]
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
        assert [r for r, _ in active_thresholds(model)] == [3, 4, 5]
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
        assert len(active_thresholds(model)) == 7
        with pytest.raises(QuadratureDimensionError, match="montecarlo"):
            prob_weakest_first_positive_quadrature(model)
        assert MAX_QUADRATURE_DIMENSION == 6

    def test_five_active_thresholds_agree_with_montecarlo(self):
        model = PopulationModel(n=6, low=0.0, high=1.0, decay_step=0.16)
        assert len(active_thresholds(model)) == 5
        exact = prob_weakest_first_positive_quadrature(model)
        est, se = prob_positive_montecarlo(model, "ascending", 200_000, 8)
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
    assume(len(active_thresholds(model)) == m)  # rounding at the band edges
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


def assert_matches_exact_oracle(model):
    # the recursion's documented error: about 5e-14 relative, plus under 1e-140
    # from flushed terms
    exact = prob_weakest_first_positive_exact(model)
    error = abs(Fraction(prob_weakest_first_positive(model)) - exact)
    assert error <= Fraction(1e-13) * exact + Fraction(1e-140)


class TestWeakestFirstRecursion:
    def test_reference_model_matches_exact_oracle(self):
        assert_matches_exact_oracle(REFERENCE_MODEL)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(population_models())
    def test_matches_exact_oracle(self, model):
        assert_matches_exact_oracle(model)

    def test_no_active_thresholds_returns_one(self):
        model = PopulationModel(n=5, low=0.5, high=1.0, decay_step=0.05)
        assert active_thresholds(model) == []
        assert prob_weakest_first_positive(model) == 1.0

    @pytest.mark.parametrize("step", [0.5, 0.6])
    def test_last_threshold_at_or_above_high_returns_zero(self, step):
        # the last threshold is 2 * step >= high: the largest draw never clears it
        model = PopulationModel(n=3, low=0.5, high=1.0, decay_step=step)
        assert prob_weakest_first_positive(model) == 0.0

    def test_single_active_threshold_matches_closed_form(self):
        model = PopulationModel(n=3, low=0.5, high=1.0, decay_step=0.3)
        assert prob_weakest_first_positive(model) == pytest.approx(1.0 - 0.2**3, abs=1e-14)

    def test_two_item_half_decay(self):
        model = PopulationModel(n=2, low=0.0, high=1.0, decay_step=0.5)
        assert prob_weakest_first_positive(model) == pytest.approx(0.75, abs=1e-14)

    def test_two_active_thresholds_match_independent_double_integral(self):
        model = PopulationModel(n=4, low=0.4, high=1.0, decay_step=0.22)
        w = 0.6
        ref, _ = dblquad(
            lambda y, x: 12.0 * ((y - 0.4) / w) ** 2 / w / w,
            0.66, 1.0,
            lambda x: 0.44, lambda x: x,
        )
        assert prob_weakest_first_positive(model) == pytest.approx(ref, abs=1e-7)

    def test_three_active_thresholds_match_independent_triple_integral(self):
        model = PopulationModel(n=5, low=0.3, high=1.0, decay_step=0.17)
        w = 0.7
        ref, _ = tplquad(
            lambda z, y, x: 60.0 * ((z - 0.3) / w) ** 2 / w**3,
            0.68, 1.0,
            lambda x: 0.51, lambda x: x,
            lambda x, y: 0.34, lambda x, y: y,
        )
        assert prob_weakest_first_positive(model) == pytest.approx(ref, abs=1e-7)

    # near-certain models make quad warn of roundoff; agreement is still checked
    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(few_threshold_models())
    def test_matches_quadrature_up_to_three_thresholds(self, model):
        exact = prob_weakest_first_positive(model)
        assert exact == pytest.approx(prob_weakest_first_positive_quadrature(model), abs=1e-9)

    @pytest.mark.parametrize(
        "model",
        [REFERENCE_MODEL, PopulationModel(n=6, low=0.0, high=1.0, decay_step=0.16)],
        ids=["m4-reference", "m5"],
    )
    def test_matches_quadrature_at_four_and_five_thresholds(self, model):
        exact = prob_weakest_first_positive(model)
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
        assert len(active_thresholds(model)) > MAX_QUADRATURE_DIMENSION
        exact = prob_weakest_first_positive(model)
        est, se = prob_positive_montecarlo(model, "ascending", trials, 31)
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
        value = lambda step: prob_weakest_first_positive(
            PopulationModel(n=n, low=low, high=high, decay_step=step)
        )
        assert value(larger) <= value(smaller) + 1e-12


class TestMonteCarlo:
    def test_deterministic_for_fixed_seed(self):
        a = prob_positive_montecarlo(REFERENCE_MODEL, "ascending", 20_000, 123)
        b = prob_positive_montecarlo(REFERENCE_MODEL, "ascending", 20_000, 123)
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
            for strategy in ("ascending", "descending"):
                before = prob_positive_montecarlo(model, strategy, trials, 3)
                with monkeypatch.context() as patch:
                    patch.setattr(analysis, "_MC_ELEMENTS", elements)
                    after = prob_positive_montecarlo(model, strategy, trials, 3)
                assert before == after

    def test_block_memory_does_not_grow_with_n(self):
        # 20,000 trials of 1,000 draws in one block would take 160 MB
        model = PopulationModel(n=1000, low=0.5, high=1.0, decay_step=0.0006)
        tracemalloc.start()
        try:
            analysis._simulate(model, 20_000, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_agrees_with_closed_form_strongest(self):
        model = PopulationModel(n=2, low=0.0, high=1.0, decay_step=0.3)
        est, se = prob_positive_montecarlo(model, "descending", 100_000, 17)
        assert abs(est - 0.49) <= 5.0 * se

    def test_agrees_with_quadrature_weakest(self):
        model = PopulationModel(n=2, low=0.0, high=1.0, decay_step=0.3)
        est, se = prob_positive_montecarlo(model, "ascending", 100_000, 17)
        assert abs(est - 0.91) <= 5.0 * se

    def test_certain_positivity(self):
        model = PopulationModel(n=4, low=0.5, high=1.0, decay_step=0.0)
        est, se = prob_positive_montecarlo(model, "ascending", 1_000, 0)
        assert est == 1.0
        assert se == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="strategy"):
            prob_positive_montecarlo(REFERENCE_MODEL, "identity", 100, 0)
        with pytest.raises(ValueError, match="trials"):
            prob_positive_montecarlo(REFERENCE_MODEL, "ascending", 0, 0)

    def test_standard_error_formula(self):
        est, se = prob_positive_montecarlo(REFERENCE_MODEL, "descending", 10_000, 5)
        assert se == pytest.approx((est * (1 - est) / 10_000) ** 0.5, abs=1e-15)


class TestPositivityReport:
    def test_reference_model_uses_recursion(self):
        report = positivity_report(REFERENCE_MODEL)
        assert report.method == "recursion"
        assert report.std_error == 0.0
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
        report = positivity_report_montecarlo(REFERENCE_MODEL, 20_000, 77)
        est_w, se_w = prob_positive_montecarlo(REFERENCE_MODEL, "ascending", 20_000, 77)
        est_s, se_s = prob_positive_montecarlo(REFERENCE_MODEL, "descending", 20_000, 77)
        assert report.method == "montecarlo"
        assert report.prob_weakest_first_positive == est_w
        assert report.prob_strongest_first_positive == est_s
        assert report.std_error == max(se_w, se_s)

    def test_validation(self):
        with pytest.raises(ValueError, match="method"):
            PositivityReport(0.5, 0.5, method="guess")
        with pytest.raises(ValueError, match="must be in"):
            PositivityReport(1.5, 0.5, method="analytic")
        with pytest.raises(ValueError, match="std_error"):
            PositivityReport(0.5, 0.5, method="recursion", std_error=0.1)
        with pytest.raises(ValueError, match="std_error"):
            PositivityReport(0.5, 0.5, method="montecarlo", std_error=-0.1)


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
        if min_active <= len(active_thresholds(model)) <= max_active:
            models.append(model)
    return models


class TestRandomModelInvariants:
    def test_weakest_first_dominates_strongest_first(self):
        # clearing the hardest threshold with the weakest draw implies every
        # other constraint, so ascending order is never worse
        for model in _random_models(20250819, 12, max_active=4):
            weakest = prob_weakest_first_positive_quadrature(model)
            strongest = prob_strongest_first_positive(model)
            assert weakest + 1e-9 >= strongest

    def test_quadrature_and_closed_form_agree_with_montecarlo(self):
        trials = 1_000_000
        for i, model in enumerate(_random_models(555, 3, max_active=4)):
            weakest = prob_weakest_first_positive_quadrature(model)
            strongest = prob_strongest_first_positive(model)
            for strategy, expected in (("ascending", weakest), ("descending", strongest)):
                if not 0.05 <= expected <= 0.95:
                    continue
                est, se = prob_positive_montecarlo(model, strategy, trials, seed=9000 + i)
                assert abs(est - expected) <= 4.0 * se + 1e-9

    def test_recursion_dominates_strongest_first(self):
        for model in _random_models(20250819, 40, max_active=40, max_n=40):
            weakest = prob_weakest_first_positive(model)
            assert weakest + 1e-12 >= prob_strongest_first_positive(model)

    def test_recursion_matches_quadrature(self):
        for model in _random_models(20250819, 12, max_active=4):
            exact = prob_weakest_first_positive(model)
            assert exact == pytest.approx(prob_weakest_first_positive_quadrature(model), abs=1e-9)

    def test_recursion_agrees_with_montecarlo_beyond_quadrature(self):
        # keep models whose answer is neither near 0 nor near 1, where a
        # Monte Carlo estimate can tell a wrong value apart
        models = [
            model
            for model in _random_models(555, 200, max_active=40,
                                        min_active=MAX_QUADRATURE_DIMENSION + 1, max_n=40)
            if 0.05 <= prob_weakest_first_positive(model) <= 0.95
        ][:3]
        assert len(models) == 3
        for i, model in enumerate(models):
            expected = prob_weakest_first_positive(model)
            est, se = prob_positive_montecarlo(model, "ascending", 200_000, seed=9000 + i)
            assert abs(est - expected) <= 4.0 * se + 1e-9
