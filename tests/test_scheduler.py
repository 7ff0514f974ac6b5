import itertools

import numpy as np
import pytest

from decaysched import (
    BRUTE_FORCE_MAX_ITEMS,
    AdditiveDecay,
    MultiplicativeDecay,
    Objective,
    ScheduleMetrics,
    brute_force_optimal,
    evaluate_order,
    recommended_order,
    sort_order,
    stage_item_matrix,
    success_count_pmf,
)

VEC_A = [0.8, 0.9, 0.7, 0.7]
VEC_B = [0.8, 0.9, 0.1, 0.2]
DECAY_01 = AdditiveDecay.linear(0.1, 4)

# (initial probabilities, service order, expected count, all-success probability)
KNOWN_CASES = [
    (VEC_A, [0, 1, 2, 3], 2.5, 0.128),
    (VEC_A, [2, 3, 0, 1], 2.5, 0.1512),
    (VEC_A, [1, 0, 2, 3], 2.5, 0.126),
    (VEC_B, [0, 1, 2, 3], 1.6, 0.0),
    (VEC_B, [2, 3, 0, 1], 1.4, 0.0036),
    (VEC_B, [1, 0, 3, 2], 1.6, 0.0),
]


def exhaustive_search(p0, decay, objective):
    """Independent oracle: try every order with plain-Python accumulation.

    Mirrors the kernels' stage-by-stage arithmetic so values and tie-breaking
    (first maximizer in lexicographic order) are reproduced bit for bit.
    """
    table = stage_item_matrix(p0, decay)
    n = table.shape[0]
    product = objective is Objective.PROB_ALL_SUCCESS
    best_value = -np.inf
    best_perm = None
    for perm in itertools.permutations(range(n)):
        value = 1.0 if product else 0.0
        for i in range(n):
            if product:
                value = value * table[i, perm[i]]
            else:
                value = value + table[i, perm[i]]
        if value > best_value:
            best_value = value
            best_perm = perm
    return np.array(best_perm), best_value


class TestKnownEvaluations:
    @pytest.mark.parametrize("p0,order,expected,prob_all", KNOWN_CASES)
    def test_worked_examples(self, p0, order, expected, prob_all):
        metrics = evaluate_order(p0, order, DECAY_01)
        assert abs(metrics.expected_successes - expected) <= 1e-12
        assert abs(metrics.prob_all_success - prob_all) <= 1e-12

    def test_sorted_orders_for_the_tied_vector(self):
        # items 2 and 3 share probability 0.7; stable sort keeps their order
        np.testing.assert_array_equal(sort_order(VEC_A, "ascending"), [2, 3, 0, 1])
        np.testing.assert_array_equal(sort_order(VEC_A, "descending"), [1, 0, 2, 3])

    def test_sorted_orders_for_the_spread_vector(self):
        np.testing.assert_array_equal(sort_order(VEC_B, "ascending"), [2, 3, 0, 1])
        np.testing.assert_array_equal(sort_order(VEC_B, "descending"), [1, 0, 3, 2])

    def test_identity_metrics_expose_consistent_pmf(self):
        metrics = evaluate_order(VEC_A, [0, 1, 2, 3], DECAY_01)
        assert metrics.pmf.n == 4
        assert abs(metrics.pmf[4] - 0.128) <= 1e-12
        assert abs(metrics.pmf.mean() - 2.5) <= 1e-12


class TestSortOrder:
    def test_rejects_unknown_direction(self):
        with pytest.raises(ValueError, match="direction"):
            sort_order([0.5, 0.6], "sideways")

    def test_stable_on_all_equal(self):
        np.testing.assert_array_equal(sort_order([0.5, 0.5, 0.5], "ascending"), [0, 1, 2])
        np.testing.assert_array_equal(sort_order([0.5, 0.5, 0.5], "descending"), [0, 1, 2])


class TestStageItemMatrix:
    def test_additive_formula(self):
        table = stage_item_matrix([0.8, 0.3], AdditiveDecay.linear(0.2, 2))
        np.testing.assert_allclose(table, [[0.8, 0.3], [0.6, 0.1]], rtol=0.0, atol=1e-15)

    def test_additive_clamps(self):
        table = stage_item_matrix([0.1, 0.9], AdditiveDecay.linear(0.5, 2))
        assert table[1, 0] == 0.0
        assert table[1, 1] == pytest.approx(0.4, abs=1e-15)

    def test_multiplicative_formula(self):
        table = stage_item_matrix([0.8, 0.4], MultiplicativeDecay(0.5))
        np.testing.assert_allclose(table, [[0.8, 0.4], [0.4, 0.2]], rtol=0.0, atol=1e-15)

    def test_rejects_length_mismatch_and_bad_type(self):
        with pytest.raises(ValueError, match="stages"):
            stage_item_matrix([0.5, 0.5], AdditiveDecay.linear(0.1, 3))
        with pytest.raises(TypeError):
            stage_item_matrix([0.5], "decay")


class TestScheduleMetrics:
    def test_from_stage_probabilities(self):
        metrics = ScheduleMetrics.from_stage_probabilities([0.8, 0.8, 0.5, 0.4])
        assert abs(metrics.expected_successes - 2.5) <= 1e-12
        assert abs(metrics.prob_all_success - 0.128) <= 1e-12

    def test_value_selects_objective(self):
        metrics = ScheduleMetrics.from_stage_probabilities([0.5, 0.5])
        assert metrics.value(Objective.EXPECTED_SUCCESSES) == metrics.expected_successes
        assert metrics.value(Objective.PROB_ALL_SUCCESS) == metrics.prob_all_success
        assert metrics.value("expected") == metrics.expected_successes

    @pytest.mark.parametrize("n", [1_000, 10_000])
    @pytest.mark.parametrize("low", [0.0, 0.9])
    def test_tolerances_hold_at_large_n(self, n, low):
        # the pmf must sum to 1 within PMF_SUM_TOL (1e-12) and its mean match
        # the expected count within 1e-10; here, at n = 10**4, the errors are
        # at most 1.8e-15 and 5.0e-12
        p0 = np.random.default_rng(n).uniform(low, 1.0, n)
        metrics = evaluate_order(p0, sort_order(p0, "ascending"), AdditiveDecay.linear(0.5 / n, n))
        assert metrics.pmf.n == n
        assert metrics.expected_successes > 0.0

    def test_rejects_inconsistent_fields(self):
        pmf = success_count_pmf([0.5, 0.5])
        with pytest.raises(ValueError, match="mean"):
            ScheduleMetrics(expected_successes=1.5, prob_all_success=0.25, pmf=pmf)
        with pytest.raises(ValueError, match="top entry"):
            ScheduleMetrics(expected_successes=1.0, prob_all_success=0.5, pmf=pmf)


class TestEvaluateOrder:
    def test_order_validation(self):
        with pytest.raises(ValueError, match="length"):
            evaluate_order(VEC_A, [0, 1, 2], DECAY_01)
        with pytest.raises(ValueError, match="permutation"):
            evaluate_order(VEC_A, [0, 1, 2, 2], DECAY_01)

    def test_single_item(self):
        metrics = evaluate_order([0.4], [0], AdditiveDecay.linear(0.9, 1))
        assert metrics.expected_successes == 0.4
        assert metrics.prob_all_success == 0.4


class TestBruteForce:
    def test_rejects_large_instances(self):
        p0 = np.full(BRUTE_FORCE_MAX_ITEMS + 1, 0.5)
        decay = AdditiveDecay.linear(0.01, p0.size)
        with pytest.raises(ValueError, match="n <= 10"):
            brute_force_optimal(p0, decay, Objective.EXPECTED_SUCCESSES)

    def test_known_all_success_optimum(self):
        order, value = brute_force_optimal(VEC_B, DECAY_01, Objective.PROB_ALL_SUCCESS)
        np.testing.assert_array_equal(order, [2, 3, 0, 1])
        assert abs(value - 0.0036) <= 1e-12

    def test_known_expected_optimum_ties_to_lexicographic(self):
        # identity and strongest-first tie at 1.6; identity is lexicographically first
        order, value = brute_force_optimal(VEC_B, DECAY_01, Objective.EXPECTED_SUCCESSES)
        np.testing.assert_array_equal(order, [0, 1, 2, 3])
        assert abs(value - 1.6) <= 1e-12

    @pytest.mark.parametrize("objective", [Objective.EXPECTED_SUCCESSES, Objective.PROB_ALL_SUCCESS])
    def test_matches_exhaustive_reference(self, objective):
        rng = np.random.default_rng(7)
        for trial in range(12):
            n = int(rng.integers(2, 7))
            p0 = rng.uniform(0.0, 1.0, n)
            if trial % 2 == 0:
                decay = AdditiveDecay.linear(float(rng.uniform(0.0, 0.25)), n)
            else:
                decay = MultiplicativeDecay(float(rng.uniform(0.5, 0.99)))
            order, value = brute_force_optimal(p0, decay, objective)
            ref_order, ref_value = exhaustive_search(p0, decay, objective)
            assert value == ref_value
            np.testing.assert_array_equal(order, ref_order)

    def test_string_objective_accepted(self):
        order, value = brute_force_optimal(VEC_B, DECAY_01, "all")
        assert abs(value - 0.0036) <= 1e-12


class TestOptimalityProperties:
    """The sorted-order strategies achieve the exhaustive optimum."""

    def test_ascending_maximizes_all_success_additive(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(60):
            n = 6
            p0 = rng.uniform(0.0, 1.0, n)
            decay = AdditiveDecay.linear(float(rng.uniform(0.0, 0.2)), n)
            _, best = brute_force_optimal(p0, decay, Objective.PROB_ALL_SUCCESS)
            asc = evaluate_order(p0, sort_order(p0, "ascending"), decay)
            assert asc.prob_all_success <= best + 1e-12
            # a positive product certifies that no entry was clamped to zero
            if asc.prob_all_success > 0.0:
                assert abs(asc.prob_all_success - best) <= 1e-12
                checked += 1
        assert checked > 10  # the positive-entry branch must actually be exercised

    @pytest.mark.parametrize("kind", ["additive", "multiplicative"])
    def test_descending_maximizes_expected(self, kind):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = 6
            p0 = rng.uniform(0.0, 1.0, n)
            if kind == "additive":
                decay = AdditiveDecay.linear(float(rng.uniform(0.0, 0.2)), n)
            else:
                decay = MultiplicativeDecay(float(rng.uniform(0.5, 0.99)))
            _, best = brute_force_optimal(p0, decay, Objective.EXPECTED_SUCCESSES)
            desc = evaluate_order(p0, sort_order(p0, "descending"), decay)
            assert abs(desc.expected_successes - best) <= 1e-12

    @pytest.mark.parametrize("kind", ["additive", "multiplicative"])
    @pytest.mark.parametrize("objective", [Objective.EXPECTED_SUCCESSES, Objective.PROB_ALL_SUCCESS])
    def test_exhaustive_search_at_the_size_cap(self, kind, objective):
        rng = np.random.default_rng(23)
        n = BRUTE_FORCE_MAX_ITEMS
        for _ in range(5):
            p0 = rng.uniform(0.05, 1.0, n)
            if kind == "additive":
                decay = AdditiveDecay.linear(float(rng.uniform(0.0, 0.1)), n)
            else:
                decay = MultiplicativeDecay(float(rng.uniform(0.5, 0.99)))
            _, best = brute_force_optimal(p0, decay, objective)
            strategy = recommended_order(decay, objective)
            order = np.arange(n) if strategy == "any" else sort_order(p0, strategy)
            assert abs(evaluate_order(p0, order, decay).value(objective) - best) <= 1e-12

    def test_multiplicative_all_success_is_order_invariant(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = 6
            p0 = rng.uniform(0.0, 1.0, n)
            decay = MultiplicativeDecay(float(rng.uniform(0.5, 0.99)))
            base = evaluate_order(p0, np.arange(n), decay).prob_all_success
            for _ in range(8):
                perm = rng.permutation(n)
                got = evaluate_order(p0, perm, decay).prob_all_success
                assert abs(got - base) <= 1e-12

    def test_unclamped_additive_expected_is_order_invariant(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = 6
            p0 = rng.uniform(0.3, 1.0, n)
            # keep the largest drop below the smallest probability: no clamping
            rate = float(rng.uniform(0.0, p0.min() / (n - 1) * 0.99))
            decay = AdditiveDecay.linear(rate, n)
            base = evaluate_order(p0, np.arange(n), decay).expected_successes
            for _ in range(8):
                perm = rng.permutation(n)
                got = evaluate_order(p0, perm, decay).expected_successes
                assert abs(got - base) <= 1e-12


class TestRecommendedOrder:
    def test_mapping(self):
        additive = AdditiveDecay.linear(0.1, 4)
        multiplicative = MultiplicativeDecay(0.9)
        assert recommended_order(additive, Objective.PROB_ALL_SUCCESS) == "ascending"
        assert recommended_order(additive, Objective.EXPECTED_SUCCESSES) == "descending"
        assert recommended_order(multiplicative, Objective.PROB_ALL_SUCCESS) == "any"
        assert recommended_order(multiplicative, Objective.EXPECTED_SUCCESSES) == "descending"

    def test_rejects_bad_decay(self):
        with pytest.raises(TypeError):
            recommended_order(0.5, Objective.EXPECTED_SUCCESSES)
