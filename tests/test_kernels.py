import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import best_order_by_enumeration

import decaysched
from decaysched import AdditiveDecay, stage_item_matrix
from decaysched._kernels import _subset_layers, best_permutation, count_positive_trials


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
        ref_value, ref_perm = best_order_by_enumeration(table, use_product)
        assert value == ref_value
        np.testing.assert_array_equal(perm, ref_perm)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(0.5, 1.0), min_size=8, max_size=8),
        st.floats(0.0, 0.07),
    )
    def test_property_unclamped_additive_n8_matches_enumeration(self, p0, rate):
        # no item reaches zero, so every order has the same exact sum and
        # rounding alone picks the winner
        table = stage_item_matrix(p0, AdditiveDecay.linear(rate, 8))
        assert table.min() > 0.0
        value, perm = best_permutation(table, use_product=False)
        ref_value, ref_perm = best_order_by_enumeration(table, use_product=False)
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
        assert best_order_by_enumeration(table, use_product=False)[1].tolist() == [0, 1, 3, 2]

    @pytest.mark.parametrize("use_product", [False, True])
    def test_matches_reference_bit_for_bit(self, use_product):
        rng = np.random.default_rng(99)
        for n in (1, 2, 3, 5, 6):
            table = rng.uniform(0.0, 1.0, size=(n, n))
            value, perm = best_permutation(table, use_product)
            ref_value, ref_perm = best_order_by_enumeration(table, use_product)
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


class TestSubsetLayers:
    """The search's plan, checked on its own so that a broken plan fails here."""

    @pytest.mark.parametrize("k", range(13))
    def test_plan_is_popcount_ordered_and_points_one_layer_back(self, k):
        # position p holds the p-th bitmask ordered by size, then by value
        masks = sorted(range(1 << k), key=lambda mask: (bin(mask).count("1"), mask))
        layers = _subset_layers(k)
        assert len(layers) == k
        begin = 1
        for size, (layer, items, preds) in enumerate(layers, start=1):
            width = math.comb(k, size)
            assert (layer.start, layer.stop, layer.step) == (begin, begin + width, None), size
            assert items.shape == preds.shape == (size, width), size
            assert (np.diff(items, axis=0) > 0).all(), f"size {size}: items not ascending"
            below = range(begin - math.comb(k, size - 1), begin)
            assert ((preds >= below.start) & (preds < below.stop)).all(), (
                f"size {size}: a pred lies outside the size-{size - 1} slice"
            )
            for column, position in enumerate(range(layer.start, layer.stop)):
                mask = masks[position]
                assert items[:, column].tolist() == [i for i in range(k) if mask >> i & 1]
                for item, pred in zip(items[:, column].tolist(), preds[:, column].tolist()):
                    assert masks[pred] == mask ^ (1 << item), (
                        f"size {size}: position {pred} is not mask {mask} without item {item}"
                    )
            begin = layer.stop
        assert begin == 1 << k


def count_reference(draws, thresholds):
    """Plain-Python reference: sort each row, compare every stage strictly."""
    ascending = descending = 0
    for row in draws.tolist():
        served = sorted(row)
        ascending += all(v > t for v, t in zip(served, thresholds))
        descending += all(v > t for v, t in zip(reversed(served), thresholds))
    return ascending, descending


@st.composite
def counting_inputs(draw):
    """Draws on a 0.2 grid, so some land exactly on a threshold."""
    n = draw(st.integers(1, 6))
    rows = draw(st.integers(0, 40))
    steps = st.integers(0, 5)
    draws = np.array(draw(st.lists(steps, min_size=rows * n, max_size=rows * n)), dtype=float)
    draws = draws.reshape(rows, n) * 0.2
    kind = draw(st.sampled_from(["grid", "sorted", "below"]))
    thresholds = np.array(draw(st.lists(st.integers(-1, 6), min_size=n, max_size=n))) * 0.2
    if kind == "sorted":
        thresholds = np.sort(thresholds)
    elif kind == "below":
        # below every draw, so no stage is live
        thresholds = thresholds - 2.0
    elif draw(st.booleans()):
        thresholds[draw(st.integers(0, n - 1))] = math.inf
    return draws, thresholds


class TestCountPositiveTrials:
    @settings(max_examples=300, deadline=None)
    @given(counting_inputs())
    def test_property_matches_row_by_row_reference(self, inputs):
        draws, thresholds = inputs
        assert count_positive_trials(draws, thresholds) == count_reference(draws, thresholds)

    def test_zero_rows(self):
        assert count_positive_trials(np.zeros((0, 3)), np.zeros(3)) == (0, 0)

    def test_zero_stages_count_every_row(self):
        assert count_positive_trials(np.zeros((4, 0)), np.zeros(0)) == (4, 4)

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
        assert count_positive_trials(draws, thresholds)[0] == 3

    def test_hand_checked_rows_descending(self):
        draws = np.array(
            [
                [0.6, 0.7],  # served (0.7, 0.6): 0.6 <= 0.65 fails
                [0.9, 0.66],  # served (0.9, 0.66): clears
            ]
        )
        thresholds = np.array([0.5, 0.65])
        assert count_positive_trials(draws, thresholds)[1] == 1

    def test_threshold_equality_does_not_count(self):
        # comparisons are strict: landing exactly on a threshold fails
        draws = np.array([[0.5, 0.8]])
        assert count_positive_trials(draws, np.array([0.5, 0.6]))[0] == 0
        assert count_positive_trials(draws, np.array([0.4, 0.8]))[0] == 0

    def test_zero_thresholds_count_everything_positive(self):
        rng = np.random.default_rng(5)
        draws = rng.uniform(0.1, 1.0, size=(50, 4))
        assert count_positive_trials(draws, np.zeros(4))[0] == 50


def test_each_kernel_is_reached_only_from_its_one_caller():
    # the kernels check none of their input, so only the module that builds
    # a kernel's input may call it: scheduler.brute_force_optimal builds the
    # table, analysis.positivity_report_montecarlo the draws and thresholds
    used = {}
    for path in Path(decaysched.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        names, aliases = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if (node.module or "").endswith("_kernels"):
                    names |= {alias.name for alias in node.names}
                aliases |= {alias.asname or alias.name for alias in node.names
                            if alias.name == "_kernels"}
            elif isinstance(node, ast.Import):
                names |= {alias.name for alias in node.names if "_kernels" in alias.name}
        names |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        }
        if names or aliases:
            used[path.name] = names
    assert used == {
        "scheduler.py": {"best_permutation"},
        "analysis.py": {"count_positive_trials"},
    }
