import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaysched import (
    AdditiveDecay,
    MultiplicativeDecay,
    PopulationModel,
    ProbabilityVector,
    evaluate_order,
    generate_figure_matrix,
    positivity_report,
    sort_order,
    stage_item_matrix,
)
import decaysched
from decaysched.cli import _figure_csv, _figure_svg, _parse_scenario, main

DATA_DIR = Path(__file__).parent / "data"

SCENARIO_A = '{"probabilities": [0.8, 0.9, 0.7, 0.7], "decay": {"type": "additive", "rate": 0.1}}'
SCENARIO_B = '{"probabilities": [0.8, 0.9, 0.1, 0.2], "decay": {"type": "additive", "rate": 0.1}}'


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


valid_decays = st.one_of(
    st.builds(
        lambda rate: {"type": "additive", "rate": rate},
        st.sampled_from([0.0, -0.0]) | st.floats(0.0, 10.0),
    ),
    st.builds(
        lambda factor: {"type": "multiplicative", "factor": factor},
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    ),
)

# JSON text put in place of one value; 1e400 reads as inf and 1e308 overflows
# an additive law's drops from its third stage on
RAW_VALUES = ("true", "null", '"x"', "[0.5]", "1e400", "-0.0", "5e-324", "1e308")
_RAW = "\x00raw"

# well-formed documents that json refuses with other errors than
# JSONDecodeError: deep nesting raises RecursionError, and an integer of
# over 4,300 digits a bare ValueError
DEEP = "[" * 100_000 + "]" * 100_000
REFUSED_JSON = {
    "deep": DEEP,
    "deep-objective": '{"probabilities": [0.5], "decay": {"type": "additive", "rate": 0.1},'
    ' "objective": ' + DEEP + "}",
    "long-integer": '{"probabilities": [0.5], "decay": {"type": "additive", "rate": 1'
    + "0" * 4300 + "}}",
}

# a valid document after one byte that is not UTF-8, and the error it gives
NOT_UTF8 = b"\xff" + SCENARIO_A.encode()
NOT_UTF8_ERROR = (
    "error: scenario document is not valid JSON: "
    "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
)


@st.composite
def mutated_documents(draw):
    """A valid scenario document as text, with at most one mutation."""
    doc = {
        "probabilities": draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8)),
        "decay": draw(valid_decays),
    }
    paths = [(key,) for key in doc] + [("decay", key) for key in doc["decay"]]
    paths += [("probabilities", i) for i in range(len(doc["probabilities"]))]
    mutation = draw(st.sampled_from(["none", "drop", "add", "replace", "truncate"]))
    raw = None
    if mutation in ("drop", "replace"):
        *parents, last = draw(st.sampled_from(paths))
        target = doc
        for step in parents:
            target = target[step]
        if mutation == "drop":
            del target[last]
        else:
            raw = draw(st.sampled_from(RAW_VALUES))
            target[last] = _RAW
    elif mutation == "add":
        target = draw(st.sampled_from([doc, doc["decay"]]))
        key = draw(st.sampled_from(["objective", "interval", "extra", "type", "rate", "factor"]))
        target[key] = 0.5
    text = json.dumps(doc)
    if raw is not None:
        text = text.replace(json.dumps(_RAW), raw)
    if mutation == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text


# what a scenario document sets, as _parse_scenario returns it
def parsed(text):
    probabilities, decay = _parse_scenario(text)
    return probabilities.probs.tolist(), decay


class TestParseScenario:
    def test_additive_document(self):
        assert parsed(SCENARIO_A) == ([0.8, 0.9, 0.7, 0.7], AdditiveDecay.linear(0.1, 4))

    def test_multiplicative_document(self):
        assert parsed(
            '{"probabilities": [0.5, 0.5], "decay": {"type": "multiplicative", "factor": 0.9}}'
        ) == ([0.5, 0.5], MultiplicativeDecay(0.9))

    def test_rejects_empty_probabilities(self):
        with pytest.raises(ValueError, match="probabilities"):
            _parse_scenario('{"probabilities": [], "decay": {"type": "additive", "rate": 0.1}}')

    def test_rejects_out_of_range_probability_by_position(self):
        with pytest.raises(ValueError, match=r"probabilities\[1\] = 1.5"):
            _parse_scenario(
                '{"probabilities": [0.5, 1.5], "decay": {"type": "additive", "rate": 0.1}}'
            )

    def test_rejects_boundary_factor(self):
        with pytest.raises(ValueError, match="multiplicative factor must lie strictly between 0 and 1"):
            _parse_scenario(
                '{"probabilities": [0.5], "decay": {"type": "multiplicative", "factor": 1.0}}'
            )

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError, match="decay rate must be a finite number >= 0, got -0.1"):
            _parse_scenario('{"probabilities": [0.5], "decay": {"type": "additive", "rate": -0.1}}')

    def test_rejects_non_numbers(self):
        with pytest.raises(ValueError, match=r"probabilities\[0\] must be a number"):
            _parse_scenario('{"probabilities": [true], "decay": {"type": "additive", "rate": 0.1}}')
        # the law checks its own number, and its echo quotes a string
        with pytest.raises(ValueError) as info:
            _parse_scenario('{"probabilities": [0.5], "decay": {"type": "additive", "rate": "x"}}')
        assert str(info.value) == "decay rate must be a finite number >= 0, got 'x'"
        with pytest.raises(ValueError) as info:
            _parse_scenario('{"probabilities": [0.5], "decay": {"type": "multiplicative", '
                            '"factor": "0.5"}}')
        assert str(info.value) == "multiplicative factor must lie strictly between 0 and 1, got '0.5'"

    # ProbabilityVector checks the shape and size of whatever the document holds
    @pytest.mark.parametrize(
        "probabilities,message",
        [
            ('"abc"', "probabilities must be one-dimensional, got shape ()"),
            ("{}", "probabilities must be one-dimensional, got shape ()"),
            ("0.5", "probabilities must be one-dimensional, got shape ()"),
            ("[]", "probabilities must contain at least one entry"),
        ],
        ids=["string", "object", "number", "empty"],
    )
    def test_rejects_probabilities_that_are_no_list(self, probabilities, message):
        with pytest.raises(ValueError) as info:
            _parse_scenario('{"probabilities": %s, "decay": {"type": "additive", "rate": 0.1}}'
                            % probabilities)
        assert str(info.value) == message

    # an int beyond the float range reads as inf and fails its range check:
    # probability-huge-int's message shows the float, rate-huge-int's the law's
    # cut echo of the int
    @pytest.mark.parametrize(
        "document,message",
        [
            ('{"probabilities": [0.5], "decay": {"type": "additive", "rate": NaN}}',
             r"decay rate must be a finite number >= 0, got nan$"),
            ('{"probabilities": [0.5], "decay": {"type": "additive", "rate": 1e999}}',
             r"decay rate must be a finite number >= 0, got inf$"),
            # ProbabilityVector reads each probability, and its range check refuses these
            ('{"probabilities": [NaN], "decay": {"type": "additive", "rate": 0.1}}',
             r"probabilities\[0\] = nan is outside \[0, 1\]"),
            ('{"probabilities": [0.5, Infinity], "decay": {"type": "additive", "rate": 0.1}}',
             r"probabilities\[1\] = inf is outside \[0, 1\]"),
            ('{"probabilities": [0.5, 1' + "0" * 400 + '], "decay": {"type": "additive", '
             '"rate": 0.1}}', r"probabilities\[1\] = inf is outside \[0, 1\]"),
            ('{"probabilities": [0.5], "decay": {"type": "multiplicative", "factor": -Infinity}}',
             r"multiplicative factor must lie strictly between 0 and 1, got -inf$"),
            ('{"probabilities": [0.5], "decay": {"type": "additive", "rate": 1' + "0" * 400 + "}}",
             r"decay rate must be a finite number >= 0, got 10{99}\.\.\. \(401 characters\)$"),
        ],
        ids=["rate-nan", "rate-overflow", "probability-nan", "probability-inf",
             "probability-huge-int", "factor-minus-inf", "rate-huge-int"],
    )
    def test_rejects_non_finite_numbers(self, document, message):
        with pytest.raises(ValueError, match=message):
            _parse_scenario(document)

    @pytest.mark.parametrize("depth,shape", [(1, "(1, 2)"), (40, "(1, 1, 1, ")],
                             ids=["nested", "deep"])
    def test_a_nested_probability_list_is_a_shape_error(self, depth, shape):
        probabilities = "[" * depth + "[0.5, 0.5]" + "]" * depth
        with pytest.raises(ValueError) as info:
            _parse_scenario('{"probabilities": %s, "decay": {"type": "multiplicative", '
                            '"factor": 0.5}}' % probabilities)
        assert str(info.value).startswith(f"probabilities must be one-dimensional, got shape {shape}")

    def test_rejects_malformed_documents(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            _parse_scenario("{nope")
        with pytest.raises(ValueError, match="JSON object"):
            _parse_scenario("[1, 2]")
        with pytest.raises(ValueError, match="missing the 'probabilities'"):
            _parse_scenario('{"decay": {"type": "additive", "rate": 0.1}}')
        with pytest.raises(ValueError, match="missing the 'decay'"):
            _parse_scenario('{"probabilities": [0.5]}')
        with pytest.raises(ValueError, match="'type'"):
            _parse_scenario('{"probabilities": [0.5], "decay": 0.1}')
        with pytest.raises(ValueError, match="decay.type"):
            _parse_scenario('{"probabilities": [0.5], "decay": {"type": "linear", "rate": 0.1}}')

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown scenario field"):
            _parse_scenario(
                '{"probabilities": [0.5], "decay": {"type": "additive", "rate": 0.1}, "extra": 1}'
            )
        with pytest.raises(ValueError, match="unknown additive decay field"):
            _parse_scenario(
                '{"probabilities": [0.5], "decay": {"type": "additive", "rate": 0.1, "factor": 0.5}}'
            )

    def test_rejects_missing_rate_or_factor(self):
        with pytest.raises(ValueError, match="requires a 'rate'"):
            _parse_scenario('{"probabilities": [0.5], "decay": {"type": "additive"}}')
        with pytest.raises(ValueError, match="requires a 'factor'"):
            _parse_scenario('{"probabilities": [0.5], "decay": {"type": "multiplicative"}}')

    def test_rejects_bad_objective_and_interval(self):
        # the objective is optimize's --objective, not a field of the document
        for field in ("objective", "interval"):
            with pytest.raises(ValueError) as info:
                _parse_scenario(
                    '{"probabilities": [0.5], "decay": {"type": "additive", "rate": 0.1},'
                    ' "%s": "most"}' % field
                )
            assert str(info.value) == f"unknown scenario field(s): {field}"

    @pytest.mark.parametrize("name", REFUSED_JSON)
    def test_json_that_json_refuses_is_not_valid_json(self, name):
        with pytest.raises(ValueError, match="^scenario document is not valid JSON: "):
            _parse_scenario(REFUSED_JSON[name])

    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(text=mutated_documents())
    def test_fails_only_with_value_error(self, text):
        try:
            scenario = _parse_scenario(text)
        except ValueError:
            return
        # unpacked outside the try, where a result of the wrong length is no refusal
        probabilities, decay = scenario
        assert isinstance(probabilities, ProbabilityVector)
        assert isinstance(decay, (AdditiveDecay, MultiplicativeDecay))


def document(probabilities, decay):
    """The scenario document that sets these probabilities and this decay law."""
    law = ({"type": "additive", "rate": decay.rate} if isinstance(decay, AdditiveDecay)
           else {"type": "multiplicative", "factor": decay.factor})
    return json.dumps({"probabilities": probabilities, "decay": law})


class TestScenarioRoundTrip:
    # a document written from values parses back to exactly those values
    VALUES = [
        ([0.8, 0.9, 0.7, 0.7], AdditiveDecay.linear(0.1, 4)),
        ([0.5], AdditiveDecay.linear(0.0, 1)),
        ([0.2, 0.4], AdditiveDecay.linear(0.07, 2)),
        ([1.0, 0.0], MultiplicativeDecay(0.37)),
        # valid factors that are not floats
        ([0.5], MultiplicativeDecay(np.float32(0.3))),
        ([0.5], MultiplicativeDecay(Fraction(1, 3))),
    ]

    @pytest.mark.parametrize("values", VALUES, ids=[f"config{i}" for i in range(len(VALUES))])
    def test_exact_round_trip(self, values):
        assert parsed(document(*values)) == values

    @settings(max_examples=60)
    @given(
        probs=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=8),
        rate=st.floats(0.0, 1.0, allow_nan=False),
        multiplicative=st.booleans(),
        factor=st.floats(0.001, 0.999, allow_nan=False),
    )
    def test_round_trip_property(self, probs, rate, multiplicative, factor):
        decay = MultiplicativeDecay(factor) if multiplicative else AdditiveDecay.linear(rate, len(probs))
        assert parsed(document(probs, decay)) == (probs, decay)

    @settings(max_examples=100, derandomize=True)
    @given(
        probs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
        decay=valid_decays,
    )
    def test_document_round_trip_property(self, probs, decay):
        doc = {"probabilities": probs, "decay": decay}
        # the law reads a rate of -0.0 as 0.0
        law = {key: value if key == "type" else value + 0.0 for key, value in decay.items()}
        canonical = {"probabilities": probs, "decay": law}
        # compared as text, which shows a -0.0 that == does not
        assert document(*parsed(json.dumps(doc))) == json.dumps(canonical)

    # a one-item law's only drop is 0.0 whatever its rate; -0.0 is read as 0.0
    @pytest.mark.parametrize("rate", ["0.3", "-0.0"])
    def test_one_item_additive_keeps_its_rate(self, rate):
        doc = '{"probabilities": [0.5], "decay": {"type": "additive", "rate": %s}}' % rate
        kept = parsed(doc)[1].rate
        assert (kept, math.copysign(1.0, kept)) == (abs(float(rate)), 1.0)


def figure_model(n, decay_step=0.06, low=0.5, high=1.0):
    return PopulationModel(n=n, low=low, high=high, decay_step=decay_step)


class TestFigureMatrix:
    def test_reference_shape_and_corners(self):
        matrix = generate_figure_matrix(figure_model(13), seed=0)
        assert matrix.shape == (13, 13)
        # strongest item served first keeps its raw draw
        assert 0.5 < matrix[0, 12] < 1.0
        p0 = matrix[0]
        want = max(p0[0] - 0.06 * 12, 0.0)
        assert matrix[12, 0] == want
        assert matrix[12, 0] == 0.0  # weakest item after 12 stages of decay

    def test_zero_decay_repeats_first_row(self):
        matrix = generate_figure_matrix(figure_model(5, decay_step=0.0, low=0.2, high=0.8), seed=4)
        for i in range(5):
            np.testing.assert_array_equal(matrix[i], matrix[0])

    def test_diagonal_product_equals_weakest_first_all_success(self):
        matrix = generate_figure_matrix(figure_model(7), seed=11)
        p0 = matrix[0]
        decay = AdditiveDecay.linear(0.06, 7)
        metrics = evaluate_order(p0, sort_order(p0, "ascending"), decay)
        diag = float(np.prod(np.diagonal(matrix)))
        assert diag == metrics.prob_all_success

    @pytest.mark.parametrize("seed", range(20))
    def test_invariants_for_many_seeds(self, seed):
        matrix = generate_figure_matrix(figure_model(13), seed=seed)
        p0 = matrix[0]
        want = np.maximum(p0[None, :] - 0.06 * np.arange(13)[:, None], 0.0)
        np.testing.assert_array_equal(matrix, want)
        assert (np.diff(matrix, axis=1) >= 0.0).all()  # ascending across items
        assert (np.diff(matrix, axis=0) <= 0.0).all()  # fading across stages

    # nothing checks the table that generate_figure_matrix returns, so this
    # property is its gate
    @settings(max_examples=100, derandomize=True)
    @given(
        n=st.integers(1, 30),
        bounds=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
        .map(sorted)
        .filter(lambda b: b[0] < b[1]),
        decay_step=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_generated_draws_are_sorted_within_bounds(self, n, bounds, decay_step, seed):
        low, high = bounds
        matrix = generate_figure_matrix(PopulationModel(n, low, high, decay_step), seed)
        p0 = matrix[0]
        assert matrix.dtype == np.float64 and matrix.shape == (n, n)
        assert (np.diff(p0) >= 0.0).all()
        assert ((p0 >= low) & (p0 <= high)).all()
        assert ((matrix >= 0.0) & (matrix <= 1.0)).all()
        assert not matrix.flags.writeable

    @pytest.mark.parametrize("seed", [None, True, 1.0, -1, np.int64(-1), "1"])
    def test_rejects_seeds_that_are_not_non_negative_integers(self, seed):
        # None would draw fresh OS entropy, so the figure could not be reproduced
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got "):
            generate_figure_matrix(figure_model(4), seed)

    def test_accepts_numpy_integer_seeds(self):
        matrix = generate_figure_matrix(figure_model(4), 9)
        for seed in (np.int64(9), np.uint8(9)):
            same = generate_figure_matrix(figure_model(4), seed)
            np.testing.assert_array_equal(same, matrix)

    def test_generation_is_deterministic_per_seed(self):
        a = generate_figure_matrix(figure_model(6), seed=9)
        b = generate_figure_matrix(figure_model(6), seed=9)
        np.testing.assert_array_equal(a, b)

    def test_invalid_parameters(self):
        # the population model checks the figure's parameters once
        with pytest.raises(ValueError, match="bounds"):
            figure_model(3, decay_step=0.1, low=0.9, high=0.5)
        with pytest.raises(ValueError, match="bounds"):
            figure_model(3, decay_step=0.1, high=1.5)
        with pytest.raises(ValueError, match="positive integer"):
            figure_model(0, decay_step=0.1)
        with pytest.raises(ValueError, match=r"decay_step must be a finite number >= 0, got -0\.1"):
            figure_model(3, decay_step=-0.1)


class TestFigureRendering:
    def hand_matrix(self):
        # cells [[0.25, 0.75], [0.0, 0.25]]
        return stage_item_matrix([0.25, 0.75], AdditiveDecay(0.5, 2))

    def test_csv_fixed_precision(self):
        assert _figure_csv(self.hand_matrix()) == "0.250000,0.750000\n0.000000,0.250000\n"

    def test_csv_header_labels(self):
        want = "stage,item_1,item_2\n1,0.250000,0.750000\n2,0.000000,0.250000\n"
        assert _figure_csv(self.hand_matrix(), header=True) == want

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.lists(st.floats(0.0, 1.0) | st.sampled_from([-0.0, 5e-7, 2.5e-6]),
                         min_size=n, max_size=n),
                min_size=1, max_size=4,
            )
        ),
        st.booleans(),
    )
    def test_csv_formats_each_cell_as_format_does(self, rows, header):
        # the cell-by-cell rendering that the row format replaced, as reference
        matrix = np.array(rows)
        lines = ["stage," + ",".join(f"item_{j + 1}" for j in range(matrix.shape[1]))]
        for i, row in enumerate(matrix):
            cells = ",".join(format(v, ".6f") for v in row)
            lines.append(f"{i + 1},{cells}" if header else cells)
        want = "\n".join(lines if header else lines[1:]) + "\n"
        assert _figure_csv(matrix, header=header) == want

    def test_csv_golden_file(self):
        matrix = generate_figure_matrix(figure_model(13), seed=1729)
        golden = (DATA_DIR / "figure_seed1729.csv").read_text()
        assert _figure_csv(matrix) == golden

    def test_svg_one_square_per_cell(self):
        svg = _figure_svg(self.hand_matrix())
        assert svg.count("<rect") == 2 * 2 + 1  # cells plus background
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")

    def test_svg_size_and_darkness_track_value(self):
        svg = _figure_svg(self.hand_matrix())
        # zero cell vanishes; 0.75 cell is bigger and darker than 0.25 cell
        assert 'width="0.000"' in svg
        assert 'fill="rgb(255,255,255)"' in svg
        assert 'width="18.000"' in svg and 'fill="rgb(64,64,64)"' in svg
        assert 'width="6.000"' in svg and 'fill="rgb(191,191,191)"' in svg

    def test_svg_deterministic(self):
        matrix = generate_figure_matrix(figure_model(6), seed=5)
        assert _figure_svg(matrix) == _figure_svg(matrix)


class TestCliEvaluate:
    def test_text_output(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(SCENARIO_A)
        code, out, err = run_cli(["evaluate", "--scenario", str(scenario)], capsys)
        assert code == 0
        assert err == ""
        assert "expected_successes: 2.5" in out
        assert "prob_all_success: 0.128" in out
        assert "order: 0,1,2,3" in out
        assert "stage_probabilities: 0.8,0.8,0.5,0.4" in out

    def test_structured_output(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(SCENARIO_A)
        code, out, err = run_cli(
            ["evaluate", "--scenario", str(scenario), "--format", "structured"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["order"] == [0, 1, 2, 3]
        assert payload["expected_successes"] == pytest.approx(2.5, abs=1e-12)
        assert payload["prob_all_success"] == pytest.approx(0.128, abs=1e-12)

    def test_ascending_order(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(SCENARIO_A)
        code, out, _ = run_cli(
            ["evaluate", "--scenario", str(scenario), "--order", "ascending", "--format", "structured"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["order"] == [2, 3, 0, 1]
        assert payload["prob_all_success"] == pytest.approx(0.1512, abs=1e-12)

    def test_explicit_order(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(SCENARIO_B)
        code, out, _ = run_cli(
            ["evaluate", "--scenario", str(scenario), "--order", "1,0,3,2", "--format", "structured"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["order"] == [1, 0, 3, 2]
        assert payload["expected_successes"] == pytest.approx(1.6, abs=1e-12)
        assert payload["prob_all_success"] == 0.0

    def test_scenario_from_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(SCENARIO_A))
        code, out, _ = run_cli(["evaluate", "--format", "structured"], capsys)
        assert code == 0
        assert json.loads(out)["expected_successes"] == pytest.approx(2.5, abs=1e-12)

    # the input type stores -0.0 as 0.0, so no value derived from it prints as -0
    @pytest.mark.parametrize(
        "argv,probabilities",
        [
            (["evaluate"], "[-0.0, 0.5]"),
            (["optimize", "--objective", "all"], "[-0.0, 0.0]"),
            (["optimize", "--objective", "all", "--method", "sort"], "[-0.0, 0.0]"),
        ],
        ids=["evaluate", "optimize-brute", "optimize-sort"],
    )
    def test_negative_zero_probabilities_print_as_zero(self, argv, probabilities, monkeypatch, capsys):
        doc = '{"probabilities": %s, "decay": {"type": "multiplicative", "factor": 0.5}}'
        monkeypatch.setattr("sys.stdin", io.StringIO(doc % probabilities))
        code, out, _ = run_cli([*argv, "--format", "structured"], capsys)
        assert code == 0
        assert "-0" not in out

    def test_bad_order_is_a_validation_error(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(SCENARIO_A)
        code, _, err = run_cli(["evaluate", "--scenario", str(scenario), "--order", "0,1,2"], capsys)
        assert code == 2
        assert "length" in err
        code, _, err = run_cli(["evaluate", "--scenario", str(scenario), "--order", "first"], capsys)
        assert code == 2
        assert "--order" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("index", ["99999999999999999999999", "9223372036854775808"])
    def test_order_index_beyond_int64_is_a_validation_error(self, index, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            '{"probabilities": [0.8, 0.9], "decay": {"type": "additive", "rate": 0.1}}'
        )
        code, out, err = run_cli(
            ["evaluate", "--scenario", str(scenario), "--order", f"{index},0"], capsys
        )
        assert (code, out) == (2, "")
        assert err == f"error: order [{index}, 0] is not a permutation of 0..1\n"

    def test_missing_file_is_a_validation_error(self, capsys):
        code, _, err = run_cli(["evaluate", "--scenario", "/does/not/exist.json"], capsys)
        assert code == 2
        assert "error:" in err

    def test_interval_is_an_unknown_field(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            '{"probabilities": [0.5], "decay": {"type": "additive", "rate": 0.1}, "interval": 1.0}'
        )
        code, out, err = run_cli(["evaluate", "--scenario", str(scenario)], capsys)
        assert (code, out, err) == (2, "", "error: unknown scenario field(s): interval\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [2, 3])
    def test_overflowing_rate_names_the_rate(self, n, tmp_path, capsys):
        # 1e308 * (n - 1) is finite at n = 2 and overflows from n = 3; both
        # drops are beyond 0.5, so every stage after the first clamps to 0
        scenario = tmp_path / "scenario.json"
        doc = {"probabilities": [0.5] * n, "decay": {"type": "additive", "rate": 1e308}}
        scenario.write_text(json.dumps(doc))
        code, out, err = run_cli(["evaluate", "--scenario", str(scenario)], capsys)
        assert (code, err) == (0, "")
        assert "stage_probabilities: " + ",".join(["0.5"] + ["0"] * (n - 1)) + "\n" in out

    @pytest.mark.parametrize("command", ["evaluate", "optimize"])
    @pytest.mark.parametrize("name", REFUSED_JSON)
    def test_json_that_json_refuses_is_a_validation_error(self, name, command, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(REFUSED_JSON[name])
        code, out, err = run_cli([command, "--scenario", str(scenario)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: scenario document is not valid JSON: "), err
        assert err.count("\n") == 1 and err.endswith("\n"), err

    # JSON text is UTF-8, so a byte that is not is refused as JSON, from a file or stdin
    @pytest.mark.parametrize("command", ["evaluate", "optimize"])
    def test_a_document_that_is_not_utf8_is_not_valid_json(self, command, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_bytes(NOT_UTF8)
        assert run_cli([command, "--scenario", str(scenario)], capsys) == (2, "", NOT_UTF8_ERROR)

    def test_stdin_that_is_not_utf8_is_not_valid_json(self):
        src = str(Path(decaysched.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "decaysched", "evaluate"],
            input=NOT_UTF8,
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8"),
            timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, b"", NOT_UTF8_ERROR.encode())

    def test_a_deeply_nested_decay_type_is_one_error_line(self, monkeypatch, capsys):
        # a decay.type that json reads is echoed no deeper than json read it,
        # and one nested deeper than json reads is invalid JSON
        limit = sys.getrecursionlimit()
        for depth in range(limit - 200, limit):
            document = '{"probabilities": [0.5], "decay": {"type": %s}}' % ("[" * depth + "]" * depth)
            monkeypatch.setattr("sys.stdin", io.StringIO(document))
            code, out, err = run_cli(["evaluate"], capsys)
            assert (code, out, err.count("\n")) == (2, "", 1), (depth, err[:300])
            assert err.startswith(("error: decay.type must be", "error: scenario document is not")), err

    def test_invalid_scenario_names_the_field(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text('{"probabilities": [2.0], "decay": {"type": "additive", "rate": 0.1}}')
        code, _, err = run_cli(["evaluate", "--scenario", str(scenario)], capsys)
        assert code == 2
        assert "probabilities[0]" in err

    @pytest.mark.parametrize(
        "changes,message",
        [
            ({"decay": {"type": "additive", "rate": "0.1"}},
             "decay rate must be a finite number >= 0, got '0.1'"),
            ({"probabilities": "abc"}, "probabilities must be one-dimensional, got shape ()"),
        ],
        ids=["string-rate", "string-probabilities"],
    )
    def test_a_value_of_the_wrong_type_is_one_error_line(self, changes, message, monkeypatch,
                                                          capsys):
        document = {**json.loads(SCENARIO_A), **changes}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(document)))
        assert run_cli(["evaluate"], capsys) == (2, "", f"error: {message}\n")

    # the law echoes a factor of -0.0 as it reads it, as 0.0
    def test_a_negative_zero_factor_is_echoed_as_zero(self, monkeypatch, capsys):
        document = '{"probabilities": [0.5], "decay": {"type": "multiplicative", "factor": -0.0}}'
        monkeypatch.setattr("sys.stdin", io.StringIO(document))
        assert run_cli(["evaluate"], capsys) == (
            2, "", "error: multiplicative factor must lie strictly between 0 and 1, got 0.0\n"
        )


class TestCliOptimize:
    def test_brute_force_all_success(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(SCENARIO_B)
        code, out, _ = run_cli(
            [
                "optimize", "--scenario", str(scenario),
                "--objective", "all", "--method", "brute", "--format", "structured",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["order"] == [2, 3, 0, 1]
        assert payload["value"] == pytest.approx(0.0036, abs=1e-12)
        assert payload["method"] == "brute"

    def test_sort_strategy_descending(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(SCENARIO_B)
        code, out, _ = run_cli(
            [
                "optimize", "--scenario", str(scenario),
                "--objective", "expected", "--method", "sort", "--format", "structured",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["strategy"] == "descending"
        assert payload["order"] == [1, 0, 3, 2]
        assert payload["value"] == pytest.approx(1.6, abs=1e-12)

    def test_sort_strategy_any_for_multiplicative_all(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            '{"probabilities": [0.9, 0.5, 0.7], "decay": {"type": "multiplicative", "factor": 0.8}}'
        )
        code, out, _ = run_cli(
            [
                "optimize", "--scenario", str(scenario),
                "--objective", "all", "--method", "sort", "--format", "structured",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["strategy"] == "any"
        assert payload["order"] == [0, 1, 2]
        want = evaluate_order([0.9, 0.5, 0.7], [0, 1, 2], MultiplicativeDecay(0.8)).prob_all_success
        assert payload["value"] == pytest.approx(want, abs=1e-15)

    @pytest.mark.parametrize("method", ["brute", "sort"])
    def test_objective_defaults_to_expected(self, method, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(SCENARIO_B)
        argv = ["optimize", "--scenario", str(scenario), "--method", method]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert out.startswith("objective: expected\n")
        assert run_cli([*argv, "--objective", "expected"], capsys) == (0, out, "")

    # the document is the instance; what to maximize is optimize's --objective alone
    @pytest.mark.parametrize(
        "argv", [["evaluate"], ["optimize"], ["optimize", "--objective", "all"]],
        ids=["evaluate", "optimize", "optimize-objective"],
    )
    def test_a_document_objective_is_an_unknown_field(self, argv, monkeypatch, capsys):
        document = SCENARIO_B[:-1] + ', "objective": "all"}'
        monkeypatch.setattr("sys.stdin", io.StringIO(document))
        assert run_cli(argv, capsys) == (2, "", "error: unknown scenario field(s): objective\n")

    @pytest.mark.parametrize("method", ["brute", "sort"])
    def test_both_methods_print_the_searched_value(self, method, monkeypatch, capsys):
        # numpy's pairwise sum of this order reads 2.1556132842972677, 1 ulp
        # above the left fold that the exhaustive search maximizes
        document = json.dumps({
            "probabilities": [0.79, 0.19, 0.8, 0.19, 0.08, 0.86, 0.86, 0.88, 0.47],
            "decay": {"type": "multiplicative", "factor": 0.63},
        })
        monkeypatch.setattr("sys.stdin", io.StringIO(document))
        code, out, err = run_cli(["optimize", "--method", method, "--format", "structured"], capsys)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["order"] == [7, 5, 6, 2, 0, 8, 1, 3, 4]
        assert payload["value"] == 2.1556132842972673

    def test_brute_force_size_cap_is_validation(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        doc = {"probabilities": [0.5] * 11, "decay": {"type": "additive", "rate": 0.01}}
        scenario.write_text(json.dumps(doc))
        code, _, err = run_cli(["optimize", "--scenario", str(scenario)], capsys)
        assert code == 2
        assert "n <= 10" in err


class TestCliSimulateAndPositivity:
    def test_simulate_structured_is_byte_identical(self, capsys):
        argv = [
            "simulate", "--n", "4", "--decay", "0.2", "--low", "0.1", "--high", "0.9",
            "--trials", "5000", "--seed", "11", "--format", "structured",
        ]
        code1, out1, _ = run_cli(argv, capsys)
        code2, out2, _ = run_cli(argv, capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["trials"] == 5000
        assert 0.0 <= payload["weakest_first_estimate"] <= 1.0
        assert payload["method"] == "montecarlo"

    def test_simulate_matches_closed_forms(self, capsys):
        code, out, _ = run_cli(
            [
                "simulate", "--n", "2", "--decay", "0.3", "--low", "0", "--high", "1",
                "--trials", "20000", "--seed", "7", "--format", "structured",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        se_s = payload["strongest_first_std_error"]
        se_w = payload["weakest_first_std_error"]
        assert abs(payload["strongest_first_estimate"] - 0.49) <= 5.0 * se_s
        assert abs(payload["weakest_first_estimate"] - 0.91) <= 5.0 * se_w

    def test_simulate_validation(self, capsys):
        code, _, err = run_cli(["simulate", "--trials", "0"], capsys)
        assert code == 2
        assert "trials" in err

    def test_positivity_structured_reference_values(self, capsys):
        code, out, _ = run_cli(["positivity", "--format", "structured"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "analytic"
        assert payload["strongest_first"] == 0.56**13
        assert payload["weakest_first"] == pytest.approx(0.9999677, abs=1e-5)

    def test_positivity_text_output(self, capsys):
        code, out, _ = run_cli(["positivity"], capsys)
        assert code == 0
        assert "strongest_first: 0.0005326529677" in out
        assert "weakest_first: 0.9999677218" in out

    def test_positivity_beyond_quadrature_dimension(self, capsys):
        # 7 active thresholds, past the quadrature oracle's limit of 6
        code, out, _ = run_cli(
            ["positivity", "--n", "8", "--decay", "0.05", "--low", "0", "--high", "1",
             "--format", "structured"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "analytic"
        model = PopulationModel(n=8, low=0.0, high=1.0, decay_step=0.05)
        assert payload["weakest_first"] == positivity_report(model).prob_weakest_first_positive

    def test_positivity_bad_bounds(self, capsys):
        code, _, err = run_cli(["positivity", "--low", "0.9", "--high", "0.5"], capsys)
        assert code == 2
        assert "bounds" in err

    def test_positivity_infinite_decay_is_validation(self, capsys):
        code, out, err = run_cli(["positivity", "--decay", "inf"], capsys)
        assert (code, out) == (2, "")
        assert "decay_step must be a finite number" in err

    def test_simulate_infinite_decay_is_validation(self, capsys):
        # it used to print "decay_step":Infinity, which is not JSON
        code, out, err = run_cli(
            ["simulate", "--decay", "inf", "--trials", "10", "--format", "structured"], capsys
        )
        assert (code, out) == (2, "")
        assert "decay_step must be a finite number" in err

    @pytest.mark.parametrize(
        "argv,echo",
        [
            (["positivity", "--decay", "-0.0"], "decay_step: 0\n"),
            (["positivity", "--low", "-0.0", "--format", "structured"], '"low":0.0,'),
            (["simulate", "--decay", "-0.0", "--trials", "10", "--format", "structured"],
             '{"decay_step":0.0,'),
            (["positivity", "--low", "0.9", "--high", "-0.0"], "got low=0.9 high=0.0\n"),
        ],
        ids=["decay-text", "low-structured", "simulate-decay-structured", "high-error"],
    )
    def test_negative_zero_flags_are_echoed_as_zero(self, argv, echo, capsys):
        _, out, err = run_cli(argv, capsys)
        assert echo in out + err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv,keys",
        [
            (["positivity"], ("strongest_first", "weakest_first")),
            (["simulate", "--trials", "100"],
             ("strongest_first_estimate", "weakest_first_estimate")),
        ],
        ids=["positivity", "simulate"],
    )
    def test_overflowing_decay_step_gives_zero(self, argv, keys, capsys):
        # d * (n - 1) overflows to inf, a threshold no draw clears
        code, out, err = run_cli([*argv, "--decay", "1e308", "--format", "structured"], capsys)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert [payload[key] for key in keys] == [0.0, 0.0]

    @pytest.mark.parametrize(
        "argv,limit",
        [(["positivity"], 10_000), (["simulate", "--trials", "1"], 10_000), (["figure"], 1_000)],
        ids=["positivity", "simulate", "figure"],
    )
    def test_population_size_limit(self, argv, limit, capsys):
        # one error line, no usage text: the library refuses a population over
        # MAX_POPULATION_N, and the CLI a figure over its own cap
        code, out, err = run_cli([*argv, "--n", str(limit + 1)], capsys)
        assert (code, out) == (2, "")
        field = "--n" if argv == ["figure"] else "n"
        assert err == f"error: {field} must be at most {limit}, got {limit + 1}\n"

    @pytest.mark.parametrize(
        "n,limit", [(10_000, 100_000), (13, 76_923_076)], ids=["n10000", "n13"]
    )
    def test_simulate_trials_budget(self, n, limit, monkeypatch, capsys):
        # trials * n may reach 10**9 draws; the library refuses a call past it
        # before any block is counted.  A stub generator and counter keep the
        # call at the limit from drawing 10**9 values
        rows = []

        class Generator:
            def uniform(self, low, high, size):
                return np.broadcast_to(high, size)

        def count(draws, thresholds):
            rows.append(len(draws))
            return len(draws), len(draws)

        monkeypatch.setattr(decaysched.analysis, "_seeded_rng", lambda seed: Generator())
        monkeypatch.setattr(decaysched.analysis, "_count_positive_trials", count)
        argv = ["simulate", "--n", str(n), "--trials"]
        code, out, err = run_cli([*argv, str(limit + 1)], capsys)
        assert (code, out, rows) == (2, "", [])
        assert err == (
            f"error: trials must be at most {limit} at n = {n} (1000000000 draws in all), "
            f"got {limit + 1}\n"
        )
        assert run_cli([*argv, str(limit)], capsys)[0] == 0
        assert sum(rows) == limit

    @pytest.mark.parametrize("argv", [["simulate", "--trials", "10"], ["figure", "--n", "4"]],
                             ids=["simulate", "figure"])
    def test_negative_seed_names_the_flag(self, argv, capsys):
        # the library checks the seed; the CLI reads it as an int only
        code, out, err = run_cli([*argv, "--seed", "-1"], capsys)
        assert (code, out, err) == (2, "", "error: seed must be a non-negative integer, got -1\n")

    def test_simulate_at_population_size_limit(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--n", "10000", "--trials", "1", "--format", "structured"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["n"], payload["trials"]) == (10_000, 1)


class TestCliFigure:
    def test_writes_csv_and_svg(self, capsys):
        matrix = generate_figure_matrix(figure_model(5), seed=3)
        argv = ["figure", "--seed", "3", "--n", "5", "--format"]
        assert run_cli([*argv, "text"], capsys) == (0, _figure_csv(matrix), "")
        assert run_cli([*argv, "svg"], capsys) == (0, _figure_svg(matrix), "")

    def test_header_csv_on_stdout(self, capsys):
        code, out, _ = run_cli(["figure", "--seed", "3", "--n", "4", "--header"], capsys)
        assert code == 0
        matrix = generate_figure_matrix(figure_model(4), seed=3)
        assert out == _figure_csv(matrix, header=True)

    def test_structured_payload_round_trips_cells(self, capsys):
        code, out, _ = run_cli(
            ["figure", "--seed", "6", "--n", "4", "--format", "structured"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        matrix = generate_figure_matrix(figure_model(4), seed=6)
        assert payload["cells"] == [[float(v) for v in row] for row in matrix]
        assert payload["initial_probabilities"] == matrix[0].tolist()

    def test_checks_the_figure_size_before_printing_any(self, capsys):
        code, out, err = run_cli(["figure", "--n", "1001"], capsys)
        assert (code, out, err) == (2, "", "error: --n must be at most 1000, got 1001\n")

    def test_help_names_what_each_format_prints(self, capsys):
        assert main(["figure", "--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert ("--format {text,structured,svg} output mode: text is CSV, structured canonical "
                "JSON, svg an SVG heatmap (default: text)") in help_text
        assert main(["evaluate", "--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert ("--format {text,structured} output mode: human-readable lines or canonical JSON "
                "(default: text)") in help_text

    def test_rejects_bad_bounds(self, capsys):
        code, _, err = run_cli(["figure", "--low", "1", "--high", "0.5"], capsys)
        assert code == 2
        assert "bounds" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "decay,message",
        [
            ("inf", "decay_step must be a finite number >= 0, got inf"),
            ("-1", "decay_step must be a finite number >= 0, got -1.0"),
            ("1e308", None),
        ],
        ids=["inf", "minus-1", "1e308"],
    )
    def test_non_finite_decay_is_one_error_line(self, decay, message, capsys):
        code, out, err = run_cli(["figure", "--decay", decay], capsys)
        if message is not None:
            assert (code, out, err) == (2, "", f"error: {message}\n")
            return
        # a finite step whose drops overflow clamps every stage after the first
        assert (code, err) == (0, "")
        rows = out.splitlines()
        assert len(rows) == 13 and rows[0] != ",".join(["0.000000"] * 13)
        assert rows[1:] == [",".join(["0.000000"] * 13)] * 12


class TestCliPlumbing:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["positivity", "--wat"]) == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["positivity", "--n", "abc"], "argument --n: invalid int value: 'abc'"),
            (["figure", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
            (["positivity", "--decay", "abc"], "argument --decay: invalid float value: 'abc'"),
        ],
        ids=["int", "seed", "float"],
    )
    def test_malformed_number_is_usage_error(self, argv, message, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: decaysched {argv[0]} ")
        assert message in err

    def test_unexpected_exception_maps_to_internal_error(self, monkeypatch, capsys):
        import decaysched.cli as cli_module

        def boom(model):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli_module.analysis, "positivity_report", boom)
        code, _, err = run_cli(["positivity"], capsys)
        assert code == 1
        assert "internal error" in err

    @pytest.mark.parametrize(
        "argv",
        [["optimize", "--format", "structured"], ["figure", "--n", "4", "--header"]],
        ids=["optimize", "figure"],
    )
    def test_python_dash_m_runs_the_cli(self, argv, monkeypatch, capsys):
        # optimize reads its scenario from stdin; figure ignores stdin
        src = str(Path(decaysched.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "decaysched", *argv],
            input=SCENARIO_B.encode(),
            capture_output=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(SCENARIO_B))
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, out.encode(), b"")


# each flag's pool: (valid values, edge values); half the draws are valid, so
# that many calls get past parsing.  n and trials stay small wherever they
# are valid, so that the caps bound each call's time
_HUGE = (str(2**63), str(10**30))
_BAD_NUMBERS = ("", "nan", "1e3x", str(-(2**63)))
_POPULATION = {
    "--n": (("1", "2", "7"), ("0", "-1", "1e3", "1.5", "10001", *_HUGE, *_BAD_NUMBERS)),
    "--decay": (
        ("0.0", "-0.0", "5e-324", "0.06", "0.5", "1e308"),
        ("inf", "-inf", "-1e308", *_BAD_NUMBERS),
    ),
    "--low": (
        ("0.0", "-0.0", "5e-324", "0.5"),
        ("inf", "-inf", "1e308", "-1e308", "1", *_BAD_NUMBERS),
    ),
    "--high": (("5e-324", "0.5", "1"), ("inf", "-inf", "1e308", "-0.0", *_BAD_NUMBERS)),
}
_SCENARIO = {"--scenario": (("-",), ("", "{tmp}/missing.json"))}
# each subcommand's flags; None marks a flag without a value
_FLAG_POOLS = {
    "evaluate": {
        **_SCENARIO,
        "--order": (
            ("identity", "ascending", "descending", "0", "0,1", "1,0", "0,1,2,3"),
            ("", "-1,0", "0,,1", "1e3", f"{2**63},0", "x"),
        ),
    },
    "optimize": {
        **_SCENARIO,
        "--objective": (("expected", "all"), ("",)),
        "--method": (("brute", "sort"), ("",)),
    },
    "simulate": {
        **_POPULATION,
        "--trials": (("1", "1000"), ("0", "-1", "1e3", str(10**9 + 1), *_HUGE, *_BAD_NUMBERS)),
        "--seed": (("0", "7", *_HUGE), ("-1", "1.5", *_BAD_NUMBERS)),
    },
    "positivity": _POPULATION,
    "figure": {
        **_POPULATION,
        "--seed": (("0", "7", *_HUGE), ("-1", "1.5", *_BAD_NUMBERS)),
        "--header": None,
    },
}


@st.composite
def cli_calls(draw):
    """``(argv, format)``: a subcommand with some of its flags, each valid or at an edge."""
    command = draw(st.sampled_from(sorted(_FLAG_POOLS)))
    # every subcommand takes --format, and figure also svg; structured output
    # is checked most closely
    svg = ["svg"] if command == "figure" else []
    fmt = draw(st.sampled_from(["structured", "text", "", *svg]))
    groups = [["--format", fmt]]
    for flag, pools in _FLAG_POOLS[command].items():
        if not draw(st.booleans()):
            continue
        if pools is None:
            groups.append([flag])
            continue
        value = draw(st.sampled_from(pools[0]) | st.sampled_from(pools[1]))
        # "--order -1,0" is read as an option; "--order=-1,0" reaches the program
        groups.append(draw(st.sampled_from([[flag, value], [f"{flag}={value}"]])))
    argv = [command] + [arg for group in draw(st.permutations(groups)) for arg in group]
    return argv, fmt


def _reject_constant(name):
    raise AssertionError(f"structured output holds {name}")


class TestCliNeverCrashes:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(call=cli_calls(), scenario=mutated_documents())
    def test_exits_0_or_2_with_a_clean_report(self, call, scenario):
        argv, fmt = call
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            argv = [arg.replace("{tmp}", tmp) for arg in argv]
            start = time.perf_counter()
            with (
                mock.patch.object(sys, "stdin", io.StringIO(scenario)),
                contextlib.redirect_stdout(out),
                contextlib.redirect_stderr(err),
            ):
                code = main(argv)
            elapsed = time.perf_counter() - start
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2), err
        assert elapsed < 10.0
        if code == 2:
            assert out == ""
            if err.startswith("usage: "):
                assert f"decaysched {argv[0]}: error: " in err.splitlines()[-1], err
            else:
                assert err.startswith("error: ") and err.endswith("\n"), err
                assert err.count("\n") == 1, err
        elif fmt == "structured":
            assert out.count("\n") == 1
            json.loads(out, parse_constant=_reject_constant)
        elif fmt == "svg":
            assert out.startswith("<svg ") and out.endswith("</svg>\n")

    @pytest.mark.parametrize(
        "command,changes,field",
        [
            (["evaluate"], {"probabilities": ["x" * 100_000]}, "probabilities[0]"),
            (["evaluate"], {"decay": {"type": "y" * 100_000}}, "decay.type"),
            (["evaluate"], {"decay": {"type": "additive", "rate": [1] * 100_000}}, "decay rate"),
            (["evaluate"], {"z" * 100_000: 1}, "unknown scenario field"),
            (["evaluate"], {"decay": {"type": "additive", "rate": 0.1, "w" * 100_000: 1}},
             "unknown additive decay field"),
            (["evaluate", "--order=" + ",".join(["0"] * 20_000)],
             {"probabilities": [0.5] * 20_000, "decay": {"type": "multiplicative", "factor": 0.5}},
             "order"),
            # the command line's own echoes
            (["evaluate", "--order=" + "x" * 100_000], {}, "--order must be"),
            (["simulate", "--trials", "1" + "0" * 4_000], {}, "trials must be at most"),
            (["evaluate", "--scenario", "a" * 5_000], {}, "[Errno 36] File name too long: "),
        ],
        ids=["probability", "decay-type", "rate", "field", "decay-field", "order",
             "order-spec", "trials", "scenario-os-error"],
    )
    def test_a_huge_value_is_one_short_error_line(self, command, changes, field, monkeypatch,
                                                   capsys):
        # an echoed value is cut to 100 characters, so a line stays under 300 bytes
        document = {**json.loads(SCENARIO_A), **changes}
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(document)))
        code, out, err = run_cli(command, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {field}") and err.count("\n") == 1, err[:300]
        assert len(err.encode()) < 300, err[:300]

    @pytest.mark.parametrize(
        "argv,start",
        [
            (["positivity", "--n", "1" * 5_000], "decaysched positivity: error: argument --n: "),
            (["positivity", "--n", "1" * 4_000], "error: n must be at most 10000, got 1111"),
            (["simulate", "--trials", "1" + "0" * 5_000],
             "decaysched simulate: error: argument --trials: "),
            (["simulate", "--seed", "-" + "1" * 4_000],
             "error: seed must be a non-negative integer, got -1111"),
            (["figure", "--low", "x" * 5_000], "decaysched figure: error: argument --low: "),
            # a run of backslashes, whose repr doubles each, must not stall the cut
            (["simulate", "--seed", "\\" * 60],
             "decaysched simulate: error: argument --seed: invalid int value: '\\\\"),
            (["figure", "--low", "\\" * 60],
             "decaysched figure: error: argument --low: invalid float value: '\\\\"),
            # argparse's own reports of a choice or an argument it does not know
            (["optimize", "--method", "x" * 100_000],
             "decaysched optimize: error: argument --method: invalid choice: 'xxx"),
            (["optimize", "--objective", "x" * 100_000],
             "decaysched optimize: error: argument --objective: invalid choice: 'xxx"),
            (["evaluate", "--format", "x" * 100_000],
             "decaysched evaluate: error: argument --format: invalid choice: 'xxx"),
            (["x" * 100_000], "decaysched: error: argument command: invalid choice: 'xxx"),
            (["positivity", "--" + "x" * 100_000], "decaysched: error: unrecognized arguments: --xxx"),
        ],
        ids=["n-too-long-for-int", "n-too-large", "trials-too-long-for-int", "seed-negative",
             "low-not-a-float", "seed-backslashes", "low-backslashes", "method-choice", "objective-choice", "format-choice",
             "subcommand-choice", "unknown-option"],
    )
    def test_a_huge_argument_is_one_short_error_line(self, argv, start, capsys):
        # argparse prints its usage before what is not a number at all, and
        # the library's error comes alone; the one error line cuts the echoed value
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        errors = [line for line in err.splitlines() if "error: " in line]
        assert errors == err.splitlines()[-1:], err[:300]
        assert errors[0].startswith(start), errors[0][:300]
        assert err.startswith("usage: ") != start.startswith("error: "), err[:300]
        assert len(errors[0].encode()) < 300, errors[0][:300]

    # argparse's own report, unchanged while the value is at most 100 characters;
    # a value is its shape with {y} filled to the size
    @pytest.mark.parametrize(
        "argv,shape,line",
        [
            (["optimize", "--method", "{v}"], "{y}", "decaysched optimize: error: argument "
             "--method: invalid choice: '{v}' (choose from 'brute', 'sort')"),
            (["evaluate", "--format", "{v}"], "{y}", "decaysched evaluate: error: argument "
             "--format: invalid choice: '{v}' (choose from 'text', 'structured')"),
            (["{v}"], "{y}", "decaysched: error: argument command: invalid choice: '{v}' "
             "(choose from 'evaluate', 'optimize', 'simulate', 'positivity', 'figure')"),
            (["positivity", "{v}"], "--{y}", "decaysched: error: unrecognized arguments: {v}"),
            (["figure", "--header={v}"], "{y}",
             "decaysched figure: error: argument --header: ignored explicit argument '{v}'"),
            (["optimize", "--method", "{v}"], "{y}'", "decaysched optimize: error: argument "
             "--method: invalid choice: \"{v}\" (choose from 'brute', 'sort')"),
        ],
        ids=["method", "format", "subcommand", "unknown-option", "explicit-argument", "quote"],
    )
    @pytest.mark.parametrize("size", [3, 99, 100])
    def test_argparse_echoes_a_short_value_whole(self, argv, shape, line, size, capsys):
        value = shape.replace("{y}", "y" * (size - len(shape) + 3))
        assert len(value) == size
        code, out, err = run_cli([arg.replace("{v}", value) for arg in argv], capsys)
        assert (code, out, err.splitlines()[-1]) == (2, "", line.replace("{v}", value))

    @pytest.mark.parametrize(
        "argv,line",
        [
            (["optimize", "--method", "y" * 101], "decaysched optimize: error: argument --method: "
             f"invalid choice: '{'y' * 100}'... (101 characters) (choose from 'brute', 'sort')"),
            # the repr of 60 backslashes is 120 characters, and it is cut once, by the parser
            (["simulate", "--seed", "\\" * 60], "decaysched simulate: error: argument --seed: "
             "invalid int value: '" + "\\" * 100 + "'... (120 characters)"),
            # the repr's escape \n would be cut after its backslash, which escaped the quote
            (["optimize", "--method", "x" * 99 + "\n"], "decaysched optimize: error: argument "
             f"--method: invalid choice: '{'x' * 99}'... (101 characters) (choose from 'brute', 'sort')"),
        ],
        ids=["choice", "backslashes", "escape"],
    )
    def test_argparse_cuts_a_long_value_to_100_characters(self, argv, line, capsys):
        code, _, err = run_cli(argv, capsys)
        assert (code, err.splitlines()[-1]) == (2, line)

    def test_a_negative_order_fails_in_either_spelling(self, monkeypatch, capsys):
        # argparse reads "-1,0,1,2" after a space as an option, so only the "="
        # spelling reaches the permutation check; both exit 2
        monkeypatch.setattr("sys.stdin", io.StringIO(SCENARIO_A))
        code, _, err = run_cli(["evaluate", "--order", "-1,0,1,2"], capsys)
        assert code == 2 and "argument --order: expected one argument" in err
        monkeypatch.setattr("sys.stdin", io.StringIO(SCENARIO_A))
        code, _, err = run_cli(["evaluate", "--order=-1,0,1,2"], capsys)
        assert (code, err) == (2, "error: order [-1, 0, 1, 2] is not a permutation of 0..3\n")


class TestImportCost:
    def test_no_subcommand_imports_scipy(self, tmp_path):
        # scipy is most of the import time; only the quadrature oracle needs it
        scenario = tmp_path / "scenario.json"
        scenario.write_text(SCENARIO_A)
        script = f"""
import json, sys
import decaysched
from decaysched.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

seen = {{"import": scipy_modules()}}
for argv in (["positivity"], ["simulate", "--trials", "1000"],
             ["evaluate", "--scenario", {str(scenario)!r}],
             ["optimize", "--scenario", {str(scenario)!r}], ["figure", "--n", "4"]):
    assert main(argv) == 0
    seen[argv[0]] = scipy_modules()
print(json.dumps(seen))
"""
        src = str(Path(decaysched.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert set(seen) == {"import", "positivity", "simulate", "evaluate", "optimize", "figure"}
        assert seen == dict.fromkeys(seen, [])

    def test_library_does_not_import_the_cli(self):
        # run_module is how ``python -m`` runs a module, and it warns if the
        # package has already imported it
        script = """
import json, runpy, sys
import decaysched
print(json.dumps(sorted({"argparse", "decaysched.cli"} & set(sys.modules))), flush=True)
sys.argv = ["decaysched", "positivity"]
runpy.run_module("decaysched.cli", run_name="__main__", alter_sys=True)
"""
        src = str(Path(decaysched.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        leaked, report = proc.stdout.split("\n", 1)
        assert json.loads(leaked) == []
        assert report.startswith("n: 13\n")

    def test_only_the_cli_imports_argparse(self):
        importers = {"argparse": set(), "cli": set()}
        for path in Path(decaysched.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = "." * node.level + (node.module or "")
                    sep = "." if node.module else ""
                    names = [base] + [base + sep + alias.name for alias in node.names]
                else:
                    continue
                if any(name.split(".")[0] == "argparse" for name in names):
                    importers["argparse"].add(path.name)
                if any(name in (".cli", "decaysched.cli") for name in names):
                    importers["cli"].add(path.name)
        assert importers == {"argparse": {"cli.py"}, "cli": {"__main__.py"}}


class TestCliSurface:
    def test_cli_uses_only_public_names_of_the_package(self):
        # the CLI is a thin layer over the library: it neither imports a
        # private name of another decaysched module nor reaches one as an
        # attribute of a name it imported from the package
        def private(name):
            return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

        def root(node):
            while isinstance(node, ast.Attribute):
                node = node.value
            return node.id if isinstance(node, ast.Name) else None

        tree = ast.parse((Path(decaysched.__file__).parent / "cli.py").read_text())
        imported, used = set(), []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = (node.module or "").split(".")
                if node.level > 0 or module[0] == "decaysched":
                    used += [part for part in module if private(part)]
                    used += [alias.name for alias in node.names if private(alias.name)]
                    imported |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    module = alias.name.split(".")
                    if module[0] == "decaysched":
                        used += [part for part in module if private(part)]
                        imported.add(alias.asname or module[0])
        used += [
            ast.unparse(node)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and private(node.attr)
            and root(node.value) in imported
        ]
        assert used == []
