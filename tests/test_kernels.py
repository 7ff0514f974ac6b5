import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaysched import AdditiveDecay, stage_item_matrix
from decaysched._kernels import best_permutation, count_positive_trials


def brute_reference(table, use_product):
    """Plain-Python reference: same accumulation order, same tie-breaking."""
    n = table.shape[0]
    best_value = -np.inf
    best_perm = None
    for perm in itertools.permutations(range(n)):
        value = 1.0 if use_product else 0.0
        for i in range(n):
            if use_product:
                value = value * table[i, perm[i]]
            else:
                value = value + table[i, perm[i]]
        if value > best_value:
            best_value = value
            best_perm = perm
    return best_value, np.array(best_perm)


@st.composite
def tie_heavy_tables(draw):
    """Small tables whose optimum is often shared by many orders."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["grid", "clamped", "zeros"]))
    if kind == "zeros":
        return np.zeros((n, n))
    tenths = st.integers(0, 10)
    if kind == "grid":
        return np.array(draw(st.lists(tenths, min_size=n * n, max_size=n * n))).reshape(n, n) / 10
    # additive decay large enough to clamp items to zero
    p0 = np.array(draw(st.lists(tenths, min_size=n, max_size=n))) / 10
    rate = draw(st.integers(0, 4)) / 10
    return stage_item_matrix(p0, AdditiveDecay.linear(rate, n))


class TestBestPermutation:
    @settings(max_examples=150, deadline=None)
    @given(tie_heavy_tables(), st.booleans())
    def test_property_matches_enumeration_bit_for_bit(self, table, use_product):
        value, perm = best_permutation(table, use_product)
        ref_value, ref_perm = brute_reference(table, use_product)
        assert value == ref_value
        np.testing.assert_array_equal(perm, ref_perm)

    def test_rebuild_folds_the_actual_prefix(self):
        # Serving 0 then 1 folds to 0.7999999999999999, 1 ulp below serving
        # 1 then 0 (0.8).  From 0.8 serving item 2 next would reach the
        # optimum 1.6, so a rebuild that folds on from the best prefix value
        # returns (0, 1, 2, 3), which actually scores 1.5999999999999999.
        table = stage_item_matrix([0.6, 0.3, 0.3, 1.0], AdditiveDecay.linear(0.1, 4))
        value, perm = best_permutation(table, use_product=False)
        assert (value, perm.tolist()) == (1.6, [0, 1, 3, 2])
        assert brute_reference(table, use_product=False)[1].tolist() == [0, 1, 3, 2]

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="non-negative"):
            best_permutation(np.array([[0.5, -0.1], [0.2, 0.3]]), use_product=True)

    @pytest.mark.parametrize("use_product", [False, True])
    def test_matches_reference_bit_for_bit(self, use_product):
        rng = np.random.default_rng(99)
        for n in (1, 2, 3, 5, 6):
            table = rng.uniform(0.0, 1.0, size=(n, n))
            value, perm = best_permutation(table, use_product)
            ref_value, ref_perm = brute_reference(table, use_product)
            assert value == ref_value
            np.testing.assert_array_equal(perm, ref_perm)

    @pytest.mark.parametrize("use_product", [False, True])
    def test_ties_resolve_to_lexicographically_smallest(self, use_product):
        # constant rows make every permutation score identically
        table = np.tile(np.linspace(0.2, 0.8, 4)[:, None], (1, 4))
        _, perm = best_permutation(table, use_product)
        np.testing.assert_array_equal(perm, np.arange(4))

    def test_single_item(self):
        value, perm = best_permutation(np.array([[0.3]]), use_product=True)
        assert value == 0.3
        np.testing.assert_array_equal(perm, [0])

    def test_sum_prefers_diagonal_construction(self):
        # identity permutation is strictly best by construction
        table = np.full((3, 3), 0.1)
        table[np.arange(3), np.arange(3)] = 0.9
        value, perm = best_permutation(table, use_product=False)
        np.testing.assert_array_equal(perm, [0, 1, 2])
        assert value == pytest.approx(2.7, abs=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            best_permutation(np.zeros((2, 3)), use_product=False)
        with pytest.raises(ValueError, match="square"):
            best_permutation(np.zeros((0, 0)), use_product=False)


class TestCountPositiveTrials:
    def test_hand_checked_rows_ascending(self):
        draws = np.array(
            [
                [0.6, 0.7],  # sorted (0.6, 0.7): clears (0.5, 0.65)
                [0.7, 0.6],  # same multiset, same outcome
                [0.66, 0.52],  # sorted (0.52, 0.66): 0.66 > 0.65 ok
                [0.9, 0.4],  # sorted (0.4, 0.9): 0.4 <= 0.5 fails
            ]
        )
        thresholds = np.array([0.5, 0.65])
        assert count_positive_trials(draws, thresholds, descending=False) == 3

    def test_hand_checked_rows_descending(self):
        draws = np.array(
            [
                [0.6, 0.7],  # served (0.7, 0.6): 0.6 <= 0.65 fails
                [0.9, 0.66],  # served (0.9, 0.66): clears
            ]
        )
        thresholds = np.array([0.5, 0.65])
        assert count_positive_trials(draws, thresholds, descending=True) == 1

    def test_threshold_equality_does_not_count(self):
        # comparisons are strict: landing exactly on a threshold fails
        draws = np.array([[0.5, 0.8]])
        assert count_positive_trials(draws, np.array([0.5, 0.6]), descending=False) == 0
        assert count_positive_trials(draws, np.array([0.4, 0.8]), descending=False) == 0

    def test_zero_thresholds_count_everything_positive(self):
        rng = np.random.default_rng(5)
        draws = rng.uniform(0.1, 1.0, size=(50, 4))
        assert count_positive_trials(draws, np.zeros(4), descending=False) == 50

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="two-dimensional"):
            count_positive_trials(np.zeros(3), np.zeros(3), descending=False)
        with pytest.raises(ValueError, match="thresholds"):
            count_positive_trials(np.zeros((2, 3)), np.zeros(2), descending=False)
