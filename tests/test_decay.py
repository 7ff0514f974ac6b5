import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decaysched import (
    AdditiveDecay,
    MultiplicativeDecay,
    as_permutation,
    linear_decay_sequence,
    stage_probabilities,
)

probability_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=10
)


class TestLinearDecaySequence:
    def test_values_are_exact_multiples(self):
        np.testing.assert_array_equal(
            linear_decay_sequence(0.06, 4), 0.06 * np.arange(4)
        )

    def test_first_stage_never_decays(self):
        assert linear_decay_sequence(0.3, 5)[0] == 0.0

    def test_zero_rate(self):
        assert linear_decay_sequence(0.0, 3).tolist() == [0.0, 0.0, 0.0]

    def test_rejects_negative_rate_and_bad_length(self):
        with pytest.raises(ValueError, match="rate"):
            linear_decay_sequence(-0.1, 3)
        with pytest.raises(ValueError, match="positive integer"):
            linear_decay_sequence(0.1, 0)

    @pytest.mark.parametrize("rate", [np.inf, np.nan])
    def test_rejects_non_finite_rate(self, rate):
        with pytest.raises(ValueError, match=f"finite number >= 0, got {rate}"):
            linear_decay_sequence(rate, 3)

    @pytest.mark.filterwarnings("error")
    def test_overflow_is_left_to_callers_without_a_warning(self):
        assert linear_decay_sequence(1e308, 3).tolist() == [0.0, 1e308, np.inf]


class TestAdditiveDecay:
    def test_linear_constructor(self):
        decay = AdditiveDecay.linear(0.1, 4)
        np.testing.assert_array_equal(decay.decay_per_stage, [0.0, 0.1, 0.2, 0.30000000000000004])
        assert decay.interval == 1.0
        assert decay.n == 4

    def test_accepts_general_nondecreasing_sequence(self):
        decay = AdditiveDecay(np.array([0.0, 0.05, 0.05, 0.4]))
        assert decay.n == 4

    def test_rejects_decreasing_sequence(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            AdditiveDecay(np.array([0.0, 0.2, 0.1]))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match=r"decay_per_stage\[0\]"):
            AdditiveDecay(np.array([-0.1, 0.0]))

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError, match="interval"):
            AdditiveDecay(np.array([0.0, 0.1]), interval=0.0)

    def test_sequence_is_frozen(self):
        decay = AdditiveDecay.linear(0.1, 3)
        with pytest.raises(ValueError):
            decay.decay_per_stage[0] = 0.5

    def test_equality(self):
        assert AdditiveDecay.linear(0.1, 3) == AdditiveDecay.linear(0.1, 3)
        assert AdditiveDecay.linear(0.1, 3) != AdditiveDecay.linear(0.2, 3)
        assert AdditiveDecay.linear(0.1, 3) != AdditiveDecay.linear(0.1, 3, interval=2.0)
        assert AdditiveDecay.linear(0.1, 3) != MultiplicativeDecay(0.5)


class TestMultiplicativeDecay:
    def test_accepts_interior_factor(self):
        assert MultiplicativeDecay(0.5).factor == 0.5

    @pytest.mark.parametrize("factor", [0.0, 1.0, -0.2, 1.3])
    def test_rejects_boundary_and_outside(self, factor):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            MultiplicativeDecay(factor)


class TestApplyAdditive:
    """The additive law as ``stage_probabilities`` applies it."""

    def test_worked_vector(self):
        p1 = stage_probabilities([0.8, 0.9, 0.7, 0.7], AdditiveDecay([0.0, 0.1, 0.2, 0.3]))
        np.testing.assert_allclose(p1.probs, [0.8, 0.8, 0.5, 0.4], rtol=0.0, atol=1e-12)

    def test_clamps_at_zero_exactly(self):
        p1 = stage_probabilities([0.8, 0.9, 0.1, 0.2], AdditiveDecay([0.0, 0.1, 0.2, 0.3]))
        assert p1[2] == 0.0
        assert p1[3] == 0.0
        np.testing.assert_allclose(p1.probs[:2], [0.8, 0.8], rtol=0.0, atol=1e-12)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="decay has 1 stages, expected 2"):
            stage_probabilities([0.5, 0.5], AdditiveDecay([0.0]))

    def test_rejects_negative_decay(self):
        with pytest.raises(ValueError, match=r"decay_per_stage\[1\]"):
            stage_probabilities([0.5, 0.5], AdditiveDecay([0.0, -0.1]))

    @given(probability_lists, st.floats(min_value=0.0, max_value=0.5, allow_nan=False))
    def test_result_bounded_by_input(self, probs, rate):
        p1 = stage_probabilities(probs, AdditiveDecay.linear(rate, len(probs)))
        assert (p1.probs >= 0.0).all()
        assert (p1.probs <= np.asarray(probs) + 1e-15).all()


class TestApplyMultiplicative:
    """The multiplicative law as ``stage_probabilities`` applies it."""

    def test_stage_factors(self):
        p1 = stage_probabilities([1.0, 1.0, 1.0, 1.0], MultiplicativeDecay(0.5))
        np.testing.assert_array_equal(p1.probs, [1.0, 0.5, 0.25, 0.125])

    def test_first_stage_undecayed(self):
        p1 = stage_probabilities([0.8, 0.8, 0.8], MultiplicativeDecay(0.5))
        np.testing.assert_allclose(p1.probs, [0.8, 0.4, 0.2], rtol=0.0, atol=1e-15)

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            stage_probabilities([0.5, 0.5, 0.5], MultiplicativeDecay(1.0))
        with pytest.raises(ValueError, match="at least one entry"):
            stage_probabilities([], MultiplicativeDecay(0.5))

    @given(probability_lists, st.floats(min_value=0.01, max_value=0.99, allow_nan=False))
    def test_result_bounded_by_input(self, probs, factor):
        p1 = stage_probabilities(probs, MultiplicativeDecay(factor))
        assert (p1.probs >= 0.0).all()
        assert (p1.probs <= np.asarray(probs)).all()


class TestStageProbabilitiesDispatch:
    def test_additive(self):
        got = stage_probabilities([0.8, 0.9], AdditiveDecay.linear(0.1, 2))
        np.testing.assert_allclose(got.probs, [0.8, 0.8], rtol=0.0, atol=1e-15)

    def test_multiplicative(self):
        got = stage_probabilities([0.8, 0.9], MultiplicativeDecay(0.5))
        np.testing.assert_allclose(got.probs, [0.8, 0.45], rtol=0.0, atol=1e-15)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError, match="decay must be"):
            stage_probabilities([0.5], 0.1)


class TestAsPermutation:
    def test_accepts_valid_orders(self):
        np.testing.assert_array_equal(as_permutation([2, 0, 1]), [2, 0, 1])
        np.testing.assert_array_equal(as_permutation(np.array([0])), [0])

    def test_accepts_integral_floats(self):
        np.testing.assert_array_equal(as_permutation([1.0, 0.0]), [1, 0])

    def test_rejects_fractional_entries(self):
        with pytest.raises(ValueError, match="integers"):
            as_permutation([0.5, 1.0])

    def test_rejects_duplicates_and_gaps(self):
        with pytest.raises(ValueError, match="not a permutation"):
            as_permutation([0, 0, 1])
        with pytest.raises(ValueError, match="not a permutation"):
            as_permutation([0, 2])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            as_permutation([0, 1], n=3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            as_permutation([])

