import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import gamma

from decaysched import (
    ProbabilityVector,
    ScheduleMetrics,
    SuccessCountPmf,
    success_count_pmf,
)
from decaysched.distribution import _as_probability_vector

probability_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=12
)


def enumerated_pmf(probs):
    """Independent oracle: sum P(outcome) over all 2^n success/failure patterns."""
    n = len(probs)
    mass = np.zeros(n + 1)
    for bits in itertools.product((0, 1), repeat=n):
        weight = 1.0
        for bit, p in zip(bits, probs):
            weight *= p if bit else (1.0 - p)
        mass[sum(bits)] += weight
    return mass


class TestProbabilityVector:
    def test_basic_accessors(self):
        pv = ProbabilityVector(np.array([0.2, 0.5, 1.0]))
        assert pv.n == 3
        assert pv.probs.tolist() == [0.2, 0.5, 1.0]

    def test_array_is_copied_and_frozen(self):
        source = np.array([0.2, 0.5])
        pv = ProbabilityVector(source)
        source[0] = 0.9
        assert pv.probs[0] == 0.2
        with pytest.raises(ValueError):
            pv.probs[0] = 0.9

    def test_negative_zero_is_stored_as_zero(self):
        pv = ProbabilityVector([-0.0, 0.5])
        assert pv.probs.tolist() == [0.0, 0.5]
        assert not np.signbit(pv.probs).any()

    def test_rejects_out_of_range_with_position(self):
        with pytest.raises(ValueError, match=r"probabilities\[1\] = 1.5 is outside \[0, 1\]"):
            ProbabilityVector(np.array([0.5, 1.5]))
        with pytest.raises(ValueError, match=r"probabilities\[0\] = -0.1"):
            ProbabilityVector(np.array([-0.1]))

    def test_rejects_empty_and_multidimensional(self):
        with pytest.raises(ValueError, match="at least one entry"):
            ProbabilityVector(np.array([]))
        with pytest.raises(ValueError, match="one-dimensional"):
            ProbabilityVector(np.zeros((2, 2)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ProbabilityVector(np.array([np.nan]))

    # an entry is read as a scalar input is: a bool, a string, a complex number
    # or None is not a number, and an int beyond the float range reads as inf
    @pytest.mark.parametrize(
        "entries,message",
        [
            (["0.5"], "probabilities[0] must be a number, got '0.5'"),
            ([True, False], "probabilities[0] must be a number, got True"),
            ([0.5, 1 + 0j], "probabilities[1] must be a number, got (1+0j)"),
            ([0.5, 0.5, None], "probabilities[2] must be a number, got None"),
            (np.array([True]), "probabilities[0] must be a number, got True"),
            ([[0.5], [0.5, 0.5]], "probabilities[0] must be a number, got [0.5]"),
            ([0.5, 10**400], "probabilities[1] = inf is outside [0, 1]"),
            ([-(10**5000)], "probabilities[0] = -inf is outside [0, 1]"),
        ],
        ids=["str", "bool", "complex", "None", "bool-array", "ragged", "huge-int",
             "minus-huge-int"],
    )
    def test_rejects_an_entry_that_is_not_a_probability(self, entries, message):
        with pytest.raises(ValueError) as info:
            ProbabilityVector(entries)
        assert str(info.value) == message

    def test_reads_every_kind_of_real_number(self):
        entries = [Fraction(1, 2), np.float32(0.25), 1, np.int64(0), -0.0]
        assert ProbabilityVector(entries).probs.tolist() == [0.5, 0.25, 1.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="one-dimensional, got shape \\(1, 1\\)"):
            ProbabilityVector([["x"]])

    @pytest.mark.parametrize("depth", [2, 33, 70])
    def test_a_nested_list_is_a_shape_error_at_any_depth(self, depth):
        # past 32 dimensions numpy cannot reshape, so the shape is checked first
        entries = 0.5
        for _ in range(depth):
            entries = [entries]
        with pytest.raises(ValueError, match=r"^probabilities must be one-dimensional, got shape"):
            ProbabilityVector(entries)

    def test_coercion_passthrough(self):
        pv = ProbabilityVector(np.array([0.5]))
        assert _as_probability_vector(pv) is pv
        assert _as_probability_vector([0.5]).probs.tolist() == pv.probs.tolist()


class TestSuccessCountPmf:
    def test_accessors(self):
        source = np.array([0.25, 0.5, 0.25])
        pmf = SuccessCountPmf(source)
        source[0] = 0.5
        assert pmf.mass.tolist() == [0.25, 0.5, 0.25]
        with pytest.raises(ValueError):
            pmf.mass[0] = 0.5


class TestSuccessCountPmfValues:
    def test_single_trial(self):
        pmf = success_count_pmf([0.3])
        assert pmf.mass.tolist() == [0.7, 0.3]

    def test_two_fair_trials(self):
        assert success_count_pmf([0.5, 0.5]).mass.tolist() == [0.25, 0.5, 0.25]

    def test_certain_trials(self):
        pmf = success_count_pmf([1.0, 1.0, 1.0])
        assert pmf.mass.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_impossible_trials(self):
        pmf = success_count_pmf([0.0, 0.0])
        assert pmf.mass.tolist() == [1.0, 0.0, 0.0]

    def test_matches_enumeration_small_cases(self):
        rng = np.random.default_rng(12345)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            probs = rng.uniform(0.0, 1.0, size=n)
            got = success_count_pmf(probs).mass
            want = enumerated_pmf(probs)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_decayed_example_vector(self):
        # at-processing-time values (0.8, 0.8, 0.5, 0.4): all four succeed
        # with probability 0.128 and 2.5 succeed on average
        p1 = [0.8, 0.8, 0.5, 0.4]
        metrics = ScheduleMetrics(p1)
        assert abs(metrics.prob_all_success - 0.128) < 1e-12
        assert abs(metrics.expected_successes - 2.5) < 1e-12
        pmf = success_count_pmf(p1)
        assert abs(pmf.mass[4] - 0.128) < 1e-12
        assert abs(np.arange(5) @ pmf.mass - 2.5) < 1e-12


class TestDistributionProperties:
    # SuccessCountPmf checks nothing, so these are the pmf's only gates
    @settings(max_examples=200, derandomize=True)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=300))
    def test_pmf_is_normalized_and_nonnegative(self, probs):
        n = len(probs)
        mass = success_count_pmf(probs).mass
        assert mass.shape == (n + 1,)
        assert (mass >= 0.0).all()
        # success_count_pmf's a priori bound, on the exact sum of its entries
        total = sum(map(Fraction, mass.tolist()), Fraction(0))
        assert abs(total - 1) <= Fraction(gamma(3 * n)) + n * n * Fraction(2) ** -1074

    @given(probability_lists)
    def test_mean_equals_sum_of_probabilities(self, probs):
        pmf = success_count_pmf(probs)
        mean = np.arange(pmf.mass.size) @ pmf.mass
        assert abs(mean - ScheduleMetrics(probs).expected_successes) <= 1e-9

    @given(probability_lists)
    def test_top_entry_equals_product(self, probs):
        pmf = success_count_pmf(probs)
        assert abs(pmf.mass[-1] - ScheduleMetrics(probs).prob_all_success) <= 1e-12

    @given(probability_lists)
    def test_bottom_entry_equals_product_of_failures(self, probs):
        pmf = success_count_pmf(probs)
        want = float(np.prod(1.0 - np.asarray(probs)))
        assert abs(pmf.mass[0] - want) <= 1e-12

    @settings(max_examples=50)
    @given(st.data())
    def test_distribution_is_order_invariant(self, data):
        probs = data.draw(probability_lists)
        perm = data.draw(st.permutations(range(len(probs))))
        shuffled = [probs[i] for i in perm]
        np.testing.assert_allclose(
            success_count_pmf(probs).mass,
            success_count_pmf(shuffled).mass,
            rtol=0.0,
            atol=1e-12,
        )
        before, after = ScheduleMetrics(probs), ScheduleMetrics(shuffled)
        assert before.expected_successes == pytest.approx(after.expected_successes, abs=1e-12)
        assert before.prob_all_success == pytest.approx(after.prob_all_success, abs=1e-12)
