import numpy as np
import pytest
from scipy.integrate import dblquad, tplquad

import decaysched.analysis as analysis
from decaysched import (
    MAX_QUADRATURE_DIMENSION,
    PopulationModel,
    PositivityReport,
    QuadratureDimensionError,
    active_thresholds,
    positivity_report,
    positivity_report_montecarlo,
    prob_positive_montecarlo,
    prob_strongest_first_positive,
    prob_weakest_first_positive_quadrature,
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


class TestMonteCarlo:
    def test_deterministic_for_fixed_seed(self):
        a = prob_positive_montecarlo(REFERENCE_MODEL, "ascending", 20_000, 123)
        b = prob_positive_montecarlo(REFERENCE_MODEL, "ascending", 20_000, 123)
        assert a == b

    def test_chunking_does_not_change_the_stream(self, monkeypatch):
        before = prob_positive_montecarlo(REFERENCE_MODEL, "descending", 25_000, 3)
        monkeypatch.setattr(analysis, "_MC_CHUNK", 999)
        after = prob_positive_montecarlo(REFERENCE_MODEL, "descending", 25_000, 3)
        assert before == after

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
    def test_reference_model_uses_quadrature(self):
        report = positivity_report(REFERENCE_MODEL)
        assert report.method == "quadrature"
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
            PositivityReport(0.5, 0.5, method="quadrature", std_error=0.1)
        with pytest.raises(ValueError, match="std_error"):
            PositivityReport(0.5, 0.5, method="montecarlo", std_error=-0.1)


def _random_models(seed, count, max_active):
    """Random valid population models whose active-threshold count stays small."""
    rng = np.random.default_rng(seed)
    models = []
    while len(models) < count:
        n = int(rng.integers(2, 9))
        low = float(rng.uniform(0.0, 0.7))
        high = float(rng.uniform(low + 0.1, 1.0))
        step = float(rng.uniform(0.0, 1.2 * high / (n - 1)))
        model = PopulationModel(n=n, low=low, high=high, decay_step=step)
        if len(active_thresholds(model)) <= max_active:
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
