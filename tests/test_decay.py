import ast
import dataclasses
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import decaysched
from decaysched import (
    AdditiveDecay,
    MultiplicativeDecay,
    PopulationModel,
    ProbabilityVector,
    evaluate_order,
    positivity_report,
    positivity_report_montecarlo,
    sort_order,
)
from decaysched.decay import _echo, _linear_drops
from decaysched.scheduler import _as_permutation

probability_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=10
)


def stage_probabilities(p0, decay):
    """The decay law applied to ``p0`` as given, that is, in service order."""
    n = p0.n if isinstance(p0, ProbabilityVector) else len(p0)
    return evaluate_order(p0, np.arange(n), decay).stage_probabilities


class TestLinearDecaySequence:
    """``AdditiveDecay(rate, n).decay_per_stage`` and the checks on ``rate`` and ``n``."""

    def test_values_are_exact_multiples(self):
        np.testing.assert_array_equal(
            AdditiveDecay(0.06, 4).decay_per_stage, 0.06 * np.arange(4)
        )

    def test_first_stage_never_decays(self):
        assert AdditiveDecay(0.3, 5).decay_per_stage[0] == 0.0

    def test_zero_rate(self):
        assert AdditiveDecay(0.0, 3).decay_per_stage.tolist() == [0.0, 0.0, 0.0]

    def test_rejects_negative_rate_and_bad_length(self):
        with pytest.raises(ValueError, match="rate"):
            AdditiveDecay(-0.1, 3)
        with pytest.raises(ValueError, match="positive integer"):
            AdditiveDecay(0.1, 0)

    @pytest.mark.parametrize("rate", [np.inf, np.nan])
    def test_rejects_non_finite_rate(self, rate):
        with pytest.raises(ValueError, match=f"finite number >= 0, got {rate}"):
            AdditiveDecay(rate, 3)

    @pytest.mark.parametrize("build", [AdditiveDecay])
    @pytest.mark.parametrize("n", [2.5, True, 0])
    def test_rejects_non_integral_length(self, build, n):
        with pytest.raises(ValueError, match=f"n must be a positive integer, got {n}"):
            build(0.1, n)

    def test_accepts_numpy_integer_length(self):
        assert AdditiveDecay(0.1, np.int64(3)).decay_per_stage.size == 3
        assert AdditiveDecay(0.1, np.int64(3)) == AdditiveDecay(0.1, 3)

    @pytest.mark.filterwarnings("error")
    def test_overflow_is_left_to_callers_without_a_warning(self):
        assert AdditiveDecay(1e308, 3).decay_per_stage.tolist() == [0.0, 1e308, np.inf]

    # positivity_report and analysis._count_positive_trials, through
    # positivity_report_montecarlo, rely on this; nothing checks it at run time
    @settings(max_examples=200, derandomize=True)
    @given(st.floats(0.0, 1.7976931348623157e308), st.integers(1, 500))
    @example(1e308, 3)
    @example(1.7976931348623157e308, 2)
    @example(5e-324, 500)
    def test_drops_are_non_decreasing_even_when_they_overflow(self, rate, n):
        drops = _linear_drops(rate, n)
        assert drops.shape == (n,)
        assert (drops[1:] >= drops[:-1]).all()


class TestAdditiveDecay:
    def test_linear_constructor(self):
        decay = AdditiveDecay.linear(0.1, 4)
        np.testing.assert_array_equal(decay.decay_per_stage, [0.0, 0.1, 0.2, 0.30000000000000004])
        assert decay.n == 4
        assert decay == AdditiveDecay(0.1, 4)

    def test_sequence_is_frozen(self):
        decay = AdditiveDecay.linear(0.1, 3)
        with pytest.raises(ValueError):
            decay.decay_per_stage[0] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            decay.decay_per_stage = np.zeros(3)
        assert decay.decay_per_stage.tolist() == [0.0, 0.1, 0.2]

    def test_a_long_law_allocates_nothing_until_applied(self):
        # the drops are computed where the law is applied, after its length is checked
        tracemalloc.start()
        try:
            decay = AdditiveDecay(0.1, 10**12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        with pytest.raises(ValueError, match=r"^decay has 1000000000000 stages, expected 3$"):
            evaluate_order([0.5, 0.5, 0.5], [0, 1, 2], decay)

    def test_equality(self):
        assert AdditiveDecay.linear(0.1, 3) == AdditiveDecay.linear(0.1, 3)
        assert AdditiveDecay.linear(0.1, 3) != AdditiveDecay.linear(0.2, 3)
        assert AdditiveDecay.linear(0.1, 3) != MultiplicativeDecay(0.5)
        # a one-stage law has the single drop 0.0 whatever its rate
        assert AdditiveDecay(0.3, 1) != AdditiveDecay(0.0, 1)
        assert AdditiveDecay(0.1, 3) != AdditiveDecay(0.1, 4)
        assert hash(AdditiveDecay(0.1, 3)) == hash(AdditiveDecay(0.1, 3))


class TestMultiplicativeDecay:
    def test_accepts_interior_factor(self):
        assert MultiplicativeDecay(0.5).factor == 0.5

    @pytest.mark.parametrize("factor", [0.0, 1.0, -0.2, 1.3])
    def test_rejects_boundary_and_outside(self, factor):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            MultiplicativeDecay(factor)


class TestApplyAdditive:
    """The additive law as ``evaluate_order`` applies it."""

    def test_worked_vector(self):
        p1 = stage_probabilities([0.8, 0.9, 0.7, 0.7], AdditiveDecay(0.1, 4))
        np.testing.assert_allclose(p1, [0.8, 0.8, 0.5, 0.4], rtol=0.0, atol=1e-12)

    def test_clamps_at_zero_exactly(self):
        p1 = stage_probabilities([0.8, 0.9, 0.1, 0.2], AdditiveDecay(0.1, 4))
        assert p1[2] == 0.0
        assert p1[3] == 0.0
        np.testing.assert_allclose(p1[:2], [0.8, 0.8], rtol=0.0, atol=1e-12)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="decay has 1 stages, expected 2"):
            stage_probabilities([0.5, 0.5], AdditiveDecay(0.0, 1))

    def test_rejects_negative_decay(self):
        with pytest.raises(ValueError, match="decay rate must be a finite number >= 0"):
            stage_probabilities([0.5, 0.5], AdditiveDecay(-0.1, 2))

    @given(probability_lists, st.floats(min_value=0.0, max_value=0.5, allow_nan=False))
    def test_result_bounded_by_input(self, probs, rate):
        p1 = stage_probabilities(probs, AdditiveDecay.linear(rate, len(probs)))
        assert (p1 >= 0.0).all()
        assert (p1 <= np.asarray(probs) + 1e-15).all()


class TestApplyMultiplicative:
    """The multiplicative law as ``evaluate_order`` applies it."""

    def test_stage_factors(self):
        p1 = stage_probabilities([1.0, 1.0, 1.0, 1.0], MultiplicativeDecay(0.5))
        np.testing.assert_array_equal(p1, [1.0, 0.5, 0.25, 0.125])

    def test_first_stage_undecayed(self):
        p1 = stage_probabilities([0.8, 0.8, 0.8], MultiplicativeDecay(0.5))
        np.testing.assert_allclose(p1, [0.8, 0.4, 0.2], rtol=0.0, atol=1e-15)

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            stage_probabilities([0.5, 0.5, 0.5], MultiplicativeDecay(1.0))
        with pytest.raises(ValueError, match="at least one entry"):
            stage_probabilities([], MultiplicativeDecay(0.5))

    @given(probability_lists, st.floats(min_value=0.01, max_value=0.99, allow_nan=False))
    def test_result_bounded_by_input(self, probs, factor):
        p1 = stage_probabilities(probs, MultiplicativeDecay(factor))
        assert (p1 >= 0.0).all()
        assert (p1 <= np.asarray(probs)).all()


class TestStageProbabilitiesDispatch:
    def test_additive(self):
        got = stage_probabilities([0.8, 0.9], AdditiveDecay.linear(0.1, 2))
        np.testing.assert_allclose(got, [0.8, 0.8], rtol=0.0, atol=1e-15)

    def test_multiplicative(self):
        got = stage_probabilities([0.8, 0.9], MultiplicativeDecay(0.5))
        np.testing.assert_allclose(got, [0.8, 0.45], rtol=0.0, atol=1e-15)

    # nothing checks the result again, so this property is its only gate
    @settings(max_examples=200, derandomize=True)
    @given(
        probs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
        kind=st.sampled_from(["list", "array", "vector"]),
        rate=st.none() | st.floats(0.0, 1e308),
        factor=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_result_is_a_frozen_copy_with_one_probability_per_item(self, probs, kind, rate, factor):
        p0 = {"list": probs, "array": np.array(probs), "vector": ProbabilityVector(probs)}[kind]
        decay = MultiplicativeDecay(factor) if rate is None else AdditiveDecay(rate, len(probs))
        p1 = stage_probabilities(p0, decay)
        assert isinstance(p1, np.ndarray) and p1.dtype == np.float64
        assert p1.shape == (len(probs),)
        assert ((p1 >= 0.0) & (p1 <= 1.0)).all()
        assert not p1.flags.writeable
        assert not np.shares_memory(p1, p0.probs if kind == "vector" else p0)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError, match="decay must be"):
            stage_probabilities([0.5], 0.1)


# each check names its field, also for a value that it cannot compare; an
# array compares, but its comparison has no single truth value
@pytest.mark.parametrize("value", ["0.1", None, np.array([0.1, 0.2])], ids=["str", "None", "array"])
@pytest.mark.parametrize(
    "build,message",
    [
        (lambda v: PopulationModel(3, v, 1.0, 0.1), "bounds must satisfy 0 <= low < high <= 1"),
        (lambda v: PopulationModel(3, 0.0, v, 0.1), "bounds must satisfy 0 <= low < high <= 1"),
        (lambda v: PopulationModel(3, 0.0, 1.0, v), "decay_step must be a finite number >= 0"),
        (lambda v: AdditiveDecay(v, 3), "decay rate must be a finite number >= 0"),
        (lambda v: MultiplicativeDecay(v), "multiplicative factor must lie strictly between"),
    ],
    ids=["low", "high", "decay_step", "rate", "factor"],
)
def test_a_value_that_is_not_a_number_is_named(build, message, value):
    with pytest.raises(ValueError, match=message):
        build(value)


# each scalar is read once, into the Python float or int that its record keeps:
# an int beyond the float range reads as inf, anything else that is no number as NaN
@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: AdditiveDecay(10**400, 3), "decay rate must be a finite number >= 0, got 1000"),
        (lambda: AdditiveDecay(np.array([0.1]), 3),
         "decay rate must be a finite number >= 0, got array([0.1])"),
        (lambda: AdditiveDecay(np.True_, 3),
         "decay rate must be a finite number >= 0, got np.True_"),
        (lambda: PopulationModel(13, 0.5, 1, 10**400),
         "decay_step must be a finite number >= 0, got 1000"),
        # an echo is the refused value's repr, so no refusal shows a valid-looking number
        (lambda: AdditiveDecay("0.1", 3), "decay rate must be a finite number >= 0, got '0.1'"),
        (lambda: MultiplicativeDecay(np.float64(-0.1)),
         "multiplicative factor must lie strictly between 0 and 1, got np.float64(-0.1)"),
        (lambda: PopulationModel(3, Decimal("0.5"), 1, 0.1),
         "bounds must satisfy 0 <= low < high <= 1, got low=Decimal('0.5') high=1"),
    ],
    ids=["huge-int-rate", "array-rate", "numpy-bool-rate", "huge-int-decay-step", "str-rate",
         "numpy-factor", "decimal-low"],
)
def test_a_scalar_that_is_no_finite_float_is_named(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value).startswith(message)


# -0.0 is read as 0.0 once, where each scalar is read, so no record keeps its sign
def test_negative_zero_is_read_as_zero():
    model = PopulationModel(3, -0.0, 1.0, -0.0)
    values = (model.low, model.decay_step, AdditiveDecay(-0.0, 3).rate,
              AdditiveDecay(np.float64(-0.0), 3).rate)
    assert [math.copysign(1.0, value) for value in values] == [1.0] * 4


# and echoed as 0.0, so no error shows -0 either
@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: MultiplicativeDecay(-0.0),
         "multiplicative factor must lie strictly between 0 and 1, got 0.0"),
        (lambda: PopulationModel(3, 0.9, -0.0, 0.1),
         "bounds must satisfy 0 <= low < high <= 1, got low=0.9 high=0.0"),
    ],
    ids=["factor", "high"],
)
def test_negative_zero_is_echoed_as_zero(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_records_hold_python_floats_and_ints():
    law = AdditiveDecay(np.float32(0.5), np.int64(3))
    assert (type(law.rate), type(law.n)) == (float, int)
    assert type(MultiplicativeDecay(Fraction(1, 2)).factor) is float
    model = PopulationModel(np.int64(13), Fraction(1, 2), 1, np.float64(0.06))
    assert model == PopulationModel(13, 0.5, 1.0, 0.06)
    assert [type(value) for value in dataclasses.astuple(model)] == [int, float, float, float]


def test_a_report_of_numpy_and_fraction_inputs_is_the_float_report():
    report = positivity_report(PopulationModel(np.int64(13), Fraction(1, 2), 1, 0.06))
    assert report == positivity_report(PopulationModel(13, 0.5, 1.0, 0.06))
    values = (report.prob_strongest_first_positive, report.prob_weakest_first_positive)
    assert [type(value) for value in values] == [float, float]


# every echo of an input is one short line, also of a long list or of an int too
# long for Python to write out (over 4,300 digits)
LONG = list(range(100_000))
HUGE = 10**5000
SMALL_MODEL = PopulationModel(3, 0.5, 1.0, 0.1)
ENTRY_POINTS = [
    ("rate", lambda v: AdditiveDecay(v, 3), "decay rate must be a finite number >= 0, got ",
     (LONG, HUGE, -HUGE)),
    ("factor", MultiplicativeDecay,
     "multiplicative factor must lie strictly between 0 and 1, got ", (LONG, HUGE, -HUGE)),
    ("low", lambda v: PopulationModel(3, v, 1.0, 0.1),
     "bounds must satisfy 0 <= low < high <= 1, got low=", (LONG, HUGE, -HUGE)),
    ("n", lambda v: AdditiveDecay(0.1, v), "n must be a positive integer, got ", (LONG, -HUGE)),
    ("trials", lambda v: positivity_report_montecarlo(SMALL_MODEL, v, 0),
     "trials must be a positive integer, got ", (LONG, -HUGE)),
    ("seed", lambda v: positivity_report_montecarlo(SMALL_MODEL, 10, v),
     "seed must be a non-negative integer, got ", (LONG, -HUGE)),
    ("order-entry", lambda v: evaluate_order([0.5, 0.5], [v, 0], MultiplicativeDecay(0.5)),
     "order [", (HUGE, -HUGE)),
    ("direction", lambda v: sort_order([0.5], v),
     "direction must be 'ascending' or 'descending', got ", (LONG, HUGE, -HUGE)),
]


@pytest.mark.parametrize(
    "build,wording,value",
    [(build, wording, value) for _, build, wording, values in ENTRY_POINTS for value in values],
    ids=[
        f"{name}-{'list' if value is LONG else 'huge' if value > 0 else 'minus-huge'}"
        for name, _, _, values in ENTRY_POINTS
        for value in values
    ],
)
def test_an_echoed_input_is_one_short_line(build, wording, value):
    with pytest.raises(ValueError) as info:
        build(value)
    message = str(info.value)
    assert message.startswith(wording) and "\n" not in message, message[:300]
    assert len(message) < 300, message[:300]


@pytest.mark.parametrize("power", [4301, 5000, 12_345])
def test_an_int_too_long_to_write_out_shows_its_digit_count(power):
    assert _echo(10**power) == f"<int of {power + 1} digits>"
    assert _echo(1 - 10**power) == f"<negative int of {power} digits>"
    assert _echo([0, 10**power]) == f"[0, <int of {power + 1} digits>]"


def test_decayed_values_have_two_producers():
    # the table and one order are the only two applications of the decay
    # law; an import or an alias of _decayed counts as naming it
    used = set()
    for path in Path(decaysched.__file__).parent.glob("*.py"):
        for statement in ast.parse(path.read_text()).body:
            owner = getattr(statement, "name", "<module>")
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name == "_decayed":
                    # a renamed import would hide the calls made through it
                    used.add((path.name, owner, getattr(node, "asname", None)))
    assert used == {
        ("scheduler.py", "<module>", None),
        ("scheduler.py", "stage_item_matrix", None),
        ("scheduler.py", "evaluate_order", None),
    }


class TestAsPermutation:
    def test_accepts_valid_orders(self):
        np.testing.assert_array_equal(_as_permutation([2, 0, 1], 3), [2, 0, 1])
        np.testing.assert_array_equal(_as_permutation(np.array([0]), 1), [0])

    def test_accepts_integral_floats(self):
        np.testing.assert_array_equal(_as_permutation([1.0, 0.0], 2), [1, 0])

    def test_rejects_fractional_entries(self):
        with pytest.raises(ValueError, match="integers"):
            _as_permutation([0.5, 1.0], 2)

    def test_rejects_booleans(self):
        # a mask passed by mistake is not read as the indices 1 and 0
        with pytest.raises(ValueError, match="must contain integers"):
            _as_permutation([True, False], 2)
        with pytest.raises(ValueError, match="must contain integers"):
            _as_permutation(np.array([True]), 1)

    def test_rejects_duplicates_and_gaps(self):
        with pytest.raises(ValueError, match="not a permutation"):
            _as_permutation([0, 0, 1], 3)
        with pytest.raises(ValueError, match="not a permutation"):
            _as_permutation([0, 2], 2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "order,named",
        [
            ([99999999999999999999999, 0], "[99999999999999999999999, 0]"),
            (np.array([2**63, 0], dtype=np.uint64), "[9223372036854775808, 0]"),
            # numpy holds 2**63 and 0 together only as floats; the message
            # shows the entries as given
            ([2**63, 0], "[9223372036854775808, 0]"),
        ],
        ids=["python-int", "uint64", "float"],
    )
    def test_rejects_entries_beyond_int64(self, order, named):
        with pytest.raises(ValueError) as info:
            _as_permutation(order, 2)
        assert str(info.value) == f"order {named} is not a permutation of 0..1"

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            _as_permutation([0, 1], 3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            _as_permutation([], 0)

