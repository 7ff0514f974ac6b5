from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import best_order_by_enumeration, gamma

from decaysched import (
    BRUTE_FORCE_MAX_ITEMS,
    AdditiveDecay,
    MultiplicativeDecay,
    Objective,
    ProbabilityVector,
    ScheduleMetrics,
    brute_force_optimal,
    evaluate_order,
    recommended_order,
    sort_order,
    stage_item_matrix,
    success_count_pmf,
)
from decaysched import scheduler

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


def left_fold(table, order, objective):
    """The table's entries along ``order``, summed or multiplied left to right."""
    product = objective is Objective.PROB_ALL_SUCCESS
    value = 1.0 if product else 0.0
    for stage, item in enumerate(order):
        value = value * table[stage, item] if product else value + table[stage, item]
    return value


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
        assert metrics.pmf.mass.size == 5
        assert abs(metrics.pmf.mass[4] - 0.128) <= 1e-12
        assert abs(np.arange(5) @ metrics.pmf.mass - 2.5) <= 1e-12


class TestSortOrder:
    def test_rejects_unknown_direction(self):
        with pytest.raises(ValueError, match="direction"):
            sort_order([0.5, 0.6], "sideways")
        # an array's membership test has no single truth value
        with pytest.raises(ValueError, match="^direction must be 'ascending' or 'descending'"):
            sort_order([0.5], np.array(["a", "b"]))

    def test_stable_on_all_equal(self):
        np.testing.assert_array_equal(sort_order([0.5, 0.5, 0.5], "ascending"), [0, 1, 2])
        np.testing.assert_array_equal(sort_order([0.5, 0.5, 0.5], "descending"), [0, 1, 2])

    @settings(max_examples=200, derandomize=True)
    @given(
        # ties are common, so stability is tested
        probs=st.lists(st.sampled_from([0.0, 0.5]) | st.floats(0.0, 1.0), min_size=1, max_size=40),
        kind=st.sampled_from(["list", "array", "vector"]),
        direction=st.sampled_from(["ascending", "descending"]),
    )
    def test_result_is_a_frozen_stable_sorting_permutation(self, probs, kind, direction):
        p0 = {"list": probs, "array": np.array(probs), "vector": ProbabilityVector(probs)}[kind]
        order = sort_order(p0, direction)
        assert isinstance(order, np.ndarray) and order.dtype == np.int64
        assert sorted(order.tolist()) == list(range(len(probs)))
        sign = 1.0 if direction == "ascending" else -1.0
        keys = [(sign * probs[i], i) for i in order.tolist()]
        assert keys == sorted(keys)
        assert not order.flags.writeable


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

    @settings(max_examples=200, derandomize=True)
    @given(
        probs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
        kind=st.sampled_from(["list", "array", "vector"]),
        rate=st.none() | st.floats(0.0, 1e308),
        factor=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_result_is_a_frozen_table_in_the_unit_interval(self, probs, kind, rate, factor):
        p0 = {"list": probs, "array": np.array(probs), "vector": ProbabilityVector(probs)}[kind]
        decay = MultiplicativeDecay(factor) if rate is None else AdditiveDecay(rate, len(probs))
        table = stage_item_matrix(p0, decay)
        assert isinstance(table, np.ndarray) and table.dtype == np.float64
        assert table.shape == (len(probs), len(probs))
        assert ((table >= 0.0) & (table <= 1.0)).all()
        assert table[0].tolist() == probs
        assert not table.flags.writeable
        assert not np.shares_memory(table, p0.probs if kind == "vector" else p0)

    def test_rejects_length_mismatch_and_bad_type(self):
        with pytest.raises(ValueError, match="stages"):
            stage_item_matrix([0.5, 0.5], AdditiveDecay.linear(0.1, 3))
        with pytest.raises(TypeError):
            stage_item_matrix([0.5], "decay")


class TestScheduleMetrics:
    def test_from_stage_probabilities(self):
        metrics = ScheduleMetrics([0.8, 0.8, 0.5, 0.4])
        assert abs(metrics.expected_successes - 2.5) <= 1e-12
        assert abs(metrics.prob_all_success - 0.128) <= 1e-12

    def test_record_freezes_a_copy_and_checks_nothing(self):
        source = np.array([0.5, 1.5])
        metrics = ScheduleMetrics(source)
        source[0] = 0.0
        assert metrics.stage_probabilities.tolist() == [0.5, 1.5]
        assert not metrics.stage_probabilities.flags.writeable
        assert metrics.prob_all_success == 0.75

    def test_value_selects_objective(self):
        metrics = ScheduleMetrics([0.5, 0.5])
        assert metrics.value(Objective.EXPECTED_SUCCESSES) == metrics.expected_successes
        assert metrics.value(Objective.PROB_ALL_SUCCESS) == metrics.prob_all_success
        assert metrics.value("expected") == metrics.expected_successes

    @pytest.mark.parametrize("n", [1_000, 10_000])
    @pytest.mark.parametrize("low", [0.0, 0.9])
    def test_tolerances_hold_at_large_n(self, n, low):
        # the pmf sums to 1 within success_count_pmf's bound gamma_3n; its
        # mean and top entry match the sum and the product of the stage
        # probabilities up to rounding that grows linearly with n
        p0 = np.random.default_rng(n).uniform(low, 1.0, n)
        metrics = evaluate_order(p0, sort_order(p0, "ascending"), AdditiveDecay.linear(0.5 / n, n))
        mass = metrics.pmf.mass
        assert mass.size == n + 1
        assert abs(sum(map(Fraction, mass.tolist()), Fraction(0)) - 1) <= gamma(3 * n)
        assert metrics.expected_successes > 0.0
        tol = 1e-13 * n
        mean_error = abs(np.arange(n + 1) @ mass - metrics.expected_successes)
        assert mean_error <= tol * max(1.0, metrics.expected_successes)
        top_error = abs(mass[n] - metrics.prob_all_success)
        assert top_error <= tol * metrics.prob_all_success + 1e-300


class TestEvaluateOrder:
    def test_pmf_is_built_once_on_first_read(self, monkeypatch):
        calls = []

        def counting_pmf(probabilities):
            calls.append(probabilities)
            return success_count_pmf(probabilities)

        monkeypatch.setattr(scheduler, "_convolved_pmf", counting_pmf)
        n = 100_000
        p0 = np.random.default_rng(8).uniform(0.5, 1.0, n)
        metrics = evaluate_order(p0, np.arange(n), MultiplicativeDecay(1.0 - 1e-6))
        assert calls == []
        small = evaluate_order(VEC_A, [2, 0, 3, 1], DECAY_01)
        first = small.pmf
        assert small.pmf is first
        assert len(calls) == 1
        eager = success_count_pmf(evaluate_order(VEC_A, [2, 0, 3, 1], DECAY_01).stage_probabilities)
        np.testing.assert_array_equal(first.mass, eager.mass)
        assert metrics.stage_probabilities.size == n

    # ScheduleMetrics checks nothing, so this property is the gate of what
    # evaluate_order gives it
    @settings(max_examples=200, derandomize=True)
    @given(
        data=st.data(),
        probs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
        kind=st.sampled_from(["list", "array", "vector"]),
        rate=st.none() | st.floats(0.0, 1e308),
        factor=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_stage_probabilities_are_a_frozen_copy_in_the_unit_interval(
        self, data, probs, kind, rate, factor
    ):
        p0 = {"list": probs, "array": np.array(probs), "vector": ProbabilityVector(probs)}[kind]
        order = data.draw(st.permutations(range(len(probs))))
        decay = MultiplicativeDecay(factor) if rate is None else AdditiveDecay(rate, len(probs))
        p1 = evaluate_order(p0, order, decay).stage_probabilities
        assert isinstance(p1, np.ndarray) and p1.dtype == np.float64
        assert p1.shape == (len(probs),)
        assert ((p1 >= 0.0) & (p1 <= 1.0)).all()
        assert not p1.flags.writeable
        assert not np.shares_memory(p1, p0.probs if kind == "vector" else p0)

    def test_order_validation(self):
        with pytest.raises(ValueError, match="length"):
            evaluate_order(VEC_A, [0, 1, 2], DECAY_01)
        with pytest.raises(ValueError, match="permutation"):
            evaluate_order(VEC_A, [0, 1, 2, 2], DECAY_01)
        # a ragged nesting, and entries that do not compare, name the order too
        decay = AdditiveDecay(0.1, 2)
        for order in ([[0], [1, 2]], [0, None], [0, {}]):
            with pytest.raises(ValueError, match="^order must be a one-dimensional sequence"):
                evaluate_order([0.5, 0.5], order, decay)
        for order in ([0.0, 1.0], [0, Fraction(1, 1)]):
            assert evaluate_order([0.5, 0.5], order, decay).expected_successes == 0.9

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
            use_product = objective is Objective.PROB_ALL_SUCCESS
            table = stage_item_matrix(p0, decay)
            ref_value, ref_order = best_order_by_enumeration(table, use_product)
            assert value == ref_value
            np.testing.assert_array_equal(order, ref_order)

    def test_string_objective_accepted(self):
        order, value = brute_force_optimal(VEC_B, DECAY_01, "all")
        assert abs(value - 0.0036) <= 1e-12


@st.composite
def benchmark_sized_models(draw):
    """n = 8..10 items, uniform or on the 0.1 grid, under either decay law.

    Uniform draws lie on the 2^-53 grid, as numpy's generator draws them.
    With factors of at least 0.01 no product of at most ten entries
    underflows, so every fold keeps its relative error bound.  Additive
    rates reach 0.3, so many tables clamp items to zero.
    """
    n = draw(st.integers(8, 10))
    if draw(st.booleans()):
        p0 = np.array(draw(st.lists(st.integers(0, 2**53), min_size=n, max_size=n))) / 2**53
    else:
        p0 = np.array(draw(st.lists(st.integers(0, 10), min_size=n, max_size=n))) / 10
    if draw(st.booleans()):
        decay = AdditiveDecay(draw(st.floats(0.0, 0.3)), n)
    else:
        decay = MultiplicativeDecay(draw(st.floats(0.01, 0.99)))
    return p0, decay


@st.composite
def searchable_models(draw):
    """n = 1..10 items: uniform draws, the 0.1 grid, or a clamping law.

    Uniform and grid vectors go under either law, the additive one with a
    rate of at most 0.3.  A clamping law is additive with a rate of 0.1 to
    1, so most of its tables clamp items to zero.
    """
    n = draw(st.integers(1, BRUTE_FORCE_MAX_ITEMS))
    kind = draw(st.sampled_from(["uniform", "grid", "clamping"]))
    if kind == "grid":
        p0 = np.array(draw(st.lists(st.integers(0, 10), min_size=n, max_size=n))) / 10
    else:
        p0 = np.array(draw(st.lists(st.integers(0, 2**53), min_size=n, max_size=n))) / 2**53
    if kind == "clamping":
        decay = AdditiveDecay(draw(st.floats(0.1, 1.0)), n)
    elif draw(st.booleans()):
        decay = AdditiveDecay(draw(st.floats(0.0, 0.3)), n)
    else:
        decay = MultiplicativeDecay(draw(st.floats(0.01, 0.99)))
    return p0, decay


class TestOptimalityProperties:
    """The sorted-order strategies achieve the exhaustive optimum."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(searchable_models(), st.sampled_from(Objective), st.data())
    def test_no_order_beats_the_exhaustive_value(self, model, objective, data):
        # evaluate_order folds as the search does, so the exhaustive value is
        # the returned order's value and bounds every order's, with no slack
        p0, decay = model
        n = p0.size
        order, value = brute_force_optimal(p0, decay, objective)
        assert evaluate_order(p0, order, decay).value(objective) == value
        strategy = recommended_order(decay, objective)
        sorted_order = np.arange(n) if strategy == "any" else sort_order(p0, strategy)
        others = [data.draw(st.permutations(range(n))) for _ in range(3)]
        for other in [sorted_order, *others]:
            assert evaluate_order(p0, other, decay).value(objective) <= value

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(benchmark_sized_models(), st.sampled_from(Objective))
    def test_search_at_benchmark_sizes_agrees_with_theory(self, model, objective):
        # above n = 8 no enumeration is fast enough, so check against theory.
        # The returned order must fold to the returned value.  The recommended
        # order is among those searched, so the value is at least its fold,
        # exactly.  That order is also optimal for the table's entries before
        # their one rounding (of p - d, or of p times the stage's factor).  A
        # fold of nonnegative terms rounds n - 1 times, and the entries' own
        # rounding adds u to a sum's relative error and n u to a product's.
        # So the value is at most 2 gamma_n above the sorted fold for a sum,
        # and 2 gamma_(2n-1) above it for a product
        p0, decay = model
        n = p0.size
        order, value = brute_force_optimal(p0, decay, objective)
        table = stage_item_matrix(p0, decay)
        assert left_fold(table, order, objective) == value
        strategy = recommended_order(decay, objective)
        sorted_order = np.arange(n) if strategy == "any" else sort_order(p0, strategy)
        sorted_fold = left_fold(table, sorted_order, objective)
        roundings = 2 * n - 1 if objective is Objective.PROB_ALL_SUCCESS else n
        assert sorted_fold <= value <= sorted_fold * (1 + 2 * gamma(roundings))

    def test_ascending_maximizes_all_success_additive(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(60):
            n = 6
            p0 = rng.uniform(0.0, 1.0, n)
            decay = AdditiveDecay.linear(float(rng.uniform(0.0, 0.2)), n)
            _, best = brute_force_optimal(p0, decay, Objective.PROB_ALL_SUCCESS)
            asc = evaluate_order(p0, sort_order(p0, "ascending"), decay)
            assert asc.prob_all_success <= best
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
            assert desc.expected_successes <= best <= desc.expected_successes + 1e-12

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
            got = evaluate_order(p0, order, decay).value(objective)
            assert got <= best <= got + 1e-12

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

    # decay._check_law is the one check behind every entry point that takes a law
    @pytest.mark.parametrize(
        "call",
        [
            lambda decay: stage_item_matrix([0.5], decay),
            lambda decay: evaluate_order([0.5], [0], decay),
            lambda decay: brute_force_optimal([0.5], decay, Objective.EXPECTED_SUCCESSES),
            lambda decay: recommended_order(decay, Objective.EXPECTED_SUCCESSES),
        ],
        ids=["stage_item_matrix", "evaluate_order", "brute_force_optimal", "recommended_order"],
    )
    def test_every_entry_point_names_the_type_it_got(self, call):
        message = "^decay must be AdditiveDecay or MultiplicativeDecay, got float$"
        with pytest.raises(TypeError, match=message):
            call(0.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda objective: brute_force_optimal([0.5], MultiplicativeDecay(0.5), objective),
        lambda objective: recommended_order(MultiplicativeDecay(0.5), objective),
        lambda objective: evaluate_order([0.5], [0], MultiplicativeDecay(0.5)).value(objective),
    ],
    ids=["brute_force_optimal", "recommended_order", "value"],
)
def test_a_huge_objective_is_one_short_library_error(call):
    # each library entry point that takes an objective reads it through one helper
    with pytest.raises(ValueError) as info:
        call("o" * 100_000)
    message = str(info.value)
    assert message.startswith("objective must be 'expected' or 'all', got 'ooo")
    assert "\n" not in message and len(message) < 300, message[:300]
