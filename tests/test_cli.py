import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaysched import (
    AdditiveDecay,
    FigureMatrix,
    MultiplicativeDecay,
    Objective,
    PopulationModel,
    ProbabilityVector,
    ScenarioConfig,
    evaluate_order,
    figure_csv,
    figure_svg,
    generate_figure_matrix,
    parse_scenario,
    prob_all_success,
    prob_weakest_first_positive,
    serialize_scenario,
    sort_order,
    stage_probabilities,
)
import decaysched
from decaysched.cli import main

DATA_DIR = Path(__file__).parent / "data"

SCENARIO_A = '{"probabilities": [0.8, 0.9, 0.7, 0.7], "decay": {"type": "additive", "rate": 0.1}}'
SCENARIO_B = '{"probabilities": [0.8, 0.9, 0.1, 0.2], "decay": {"type": "additive", "rate": 0.1}}'


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseScenario:
    def test_additive_document(self):
        config = parse_scenario(SCENARIO_A)
        assert list(config.probabilities) == [0.8, 0.9, 0.7, 0.7]
        assert config.decay == AdditiveDecay.linear(0.1, 4)
        assert config.objective is Objective.EXPECTED_SUCCESSES

    def test_multiplicative_document(self):
        config = parse_scenario(
            '{"probabilities": [0.5, 0.5], "decay": {"type": "multiplicative", "factor": 0.9},'
            ' "objective": "all"}'
        )
        assert config.decay == MultiplicativeDecay(0.9)
        assert config.objective is Objective.PROB_ALL_SUCCESS

    def test_interval_is_applied(self):
        config = parse_scenario(
            '{"probabilities": [0.5], "decay": {"type": "additive", "rate": 0.0}, "interval": 2.5}'
        )
        assert config.decay.interval == 2.5

    def test_rejects_empty_probabilities(self):
        with pytest.raises(ValueError, match="probabilities"):
            parse_scenario('{"probabilities": [], "decay": {"type": "additive", "rate": 0.1}}')

    def test_rejects_out_of_range_probability_by_position(self):
        with pytest.raises(ValueError, match=r"probabilities\[1\] = 1.5"):
            parse_scenario('{"probabilities": [0.5, 1.5], "decay": {"type": "additive", "rate": 0.1}}')

    def test_rejects_boundary_factor(self):
        with pytest.raises(ValueError, match=r"decay\.factor"):
            parse_scenario(
                '{"probabilities": [0.5], "decay": {"type": "multiplicative", "factor": 1.0}}'
            )

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError, match=r"decay\.rate"):
            parse_scenario('{"probabilities": [0.5], "decay": {"type": "additive", "rate": -0.1}}')

    def test_rejects_non_numbers(self):
        with pytest.raises(ValueError, match=r"probabilities\[0\] must be a number"):
            parse_scenario('{"probabilities": [true], "decay": {"type": "additive", "rate": 0.1}}')
        with pytest.raises(ValueError, match=r"decay\.rate must be a number"):
            parse_scenario('{"probabilities": [0.5], "decay": {"type": "additive", "rate": "x"}}')

    @pytest.mark.parametrize(
        "document,field",
        [
            ('{"probabilities": [0.5], "decay": {"type": "additive", "rate": 0.1},'
             ' "interval": Infinity}', "interval"),
            ('{"probabilities": [0.5], "decay": {"type": "additive", "rate": NaN}}', r"decay\.rate"),
            ('{"probabilities": [0.5], "decay": {"type": "additive", "rate": 1e999}}', r"decay\.rate"),
            ('{"probabilities": [NaN], "decay": {"type": "additive", "rate": 0.1}}',
             r"probabilities\[0\]"),
            ('{"probabilities": [0.5], "decay": {"type": "multiplicative", "factor": -Infinity}}',
             r"decay\.factor"),
            ('{"probabilities": [0.5], "decay": {"type": "additive", "rate": 1' + "0" * 400 + "}}",
             r"decay\.rate"),
        ],
        ids=["interval-inf", "rate-nan", "rate-overflow", "probability-nan", "factor-minus-inf",
             "rate-huge-int"],
    )
    def test_rejects_non_finite_numbers(self, document, field):
        with pytest.raises(ValueError, match=field + " must be a finite number"):
            parse_scenario(document)

    def test_rejects_malformed_documents(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            parse_scenario("{nope")
        with pytest.raises(ValueError, match="JSON object"):
            parse_scenario("[1, 2]")
        with pytest.raises(ValueError, match="missing the 'probabilities'"):
            parse_scenario('{"decay": {"type": "additive", "rate": 0.1}}')
        with pytest.raises(ValueError, match="missing the 'decay'"):
            parse_scenario('{"probabilities": [0.5]}')
        with pytest.raises(ValueError, match="'type'"):
            parse_scenario('{"probabilities": [0.5], "decay": 0.1}')
        with pytest.raises(ValueError, match="decay.type"):
            parse_scenario('{"probabilities": [0.5], "decay": {"type": "linear", "rate": 0.1}}')

    def test_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown scenario field"):
            parse_scenario(
                '{"probabilities": [0.5], "decay": {"type": "additive", "rate": 0.1}, "extra": 1}'
            )
        with pytest.raises(ValueError, match="unknown additive decay field"):
            parse_scenario(
                '{"probabilities": [0.5], "decay": {"type": "additive", "rate": 0.1, "factor": 0.5}}'
            )

    def test_rejects_missing_rate_or_factor(self):
        with pytest.raises(ValueError, match="requires a 'rate'"):
            parse_scenario('{"probabilities": [0.5], "decay": {"type": "additive"}}')
        with pytest.raises(ValueError, match="requires a 'factor'"):
            parse_scenario('{"probabilities": [0.5], "decay": {"type": "multiplicative"}}')

    def test_rejects_bad_objective_and_interval(self):
        with pytest.raises(ValueError, match="objective"):
            parse_scenario(
                '{"probabilities": [0.5], "decay": {"type": "additive", "rate": 0.1},'
                ' "objective": "most"}'
            )
        with pytest.raises(ValueError, match="interval"):
            parse_scenario(
                '{"probabilities": [0.5], "decay": {"type": "additive", "rate": 0.1},'
                ' "interval": 0}'
            )


class TestScenarioRoundTrip:
    CONFIGS = [
        ScenarioConfig(ProbabilityVector(np.array([0.8, 0.9, 0.7, 0.7])), AdditiveDecay.linear(0.1, 4)),
        ScenarioConfig(ProbabilityVector(np.array([0.5])), AdditiveDecay.linear(0.0, 1)),
        ScenarioConfig(
            ProbabilityVector(np.array([0.2, 0.4])),
            AdditiveDecay.linear(0.07, 2, interval=2.5),
            Objective.PROB_ALL_SUCCESS,
        ),
        ScenarioConfig(ProbabilityVector(np.array([1.0, 0.0])), MultiplicativeDecay(0.37)),
    ]

    @pytest.mark.parametrize("config", CONFIGS)
    def test_exact_round_trip(self, config):
        assert parse_scenario(serialize_scenario(config)) == config

    @settings(max_examples=60)
    @given(
        probs=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=8),
        rate=st.floats(0.0, 1.0, allow_nan=False),
        interval=st.floats(0.1, 10.0, allow_nan=False),
        objective=st.sampled_from(list(Objective)),
        multiplicative=st.booleans(),
        factor=st.floats(0.001, 0.999, allow_nan=False),
    )
    def test_round_trip_property(self, probs, rate, interval, objective, multiplicative, factor):
        decay = (
            MultiplicativeDecay(factor)
            if multiplicative
            else AdditiveDecay.linear(rate, len(probs), interval)
        )
        config = ScenarioConfig(ProbabilityVector(np.array(probs)), decay, objective)
        assert parse_scenario(serialize_scenario(config)) == config

    def test_nonlinear_additive_is_not_serializable(self):
        config = ScenarioConfig(
            ProbabilityVector(np.array([0.5, 0.5, 0.5])),
            AdditiveDecay(np.array([0.0, 0.1, 0.15])),
        )
        with pytest.raises(ValueError, match="linear"):
            serialize_scenario(config)

    def test_scenario_config_validates_decay_length(self):
        with pytest.raises(ValueError, match="stages"):
            ScenarioConfig(ProbabilityVector(np.array([0.5, 0.5])), AdditiveDecay.linear(0.1, 3))


class TestFigureMatrix:
    def test_reference_shape_and_corners(self):
        matrix = generate_figure_matrix(seed=0, n=13, c=0.06, a=0.5, b=1.0)
        assert matrix.cells.shape == (13, 13)
        # strongest item served first keeps its raw draw
        assert 0.5 < matrix.cells[0, 12] < 1.0
        p0 = matrix.initial_probabilities
        want = max(p0[0] - 0.06 * 12, 0.0)
        assert matrix.cells[12, 0] == want
        assert matrix.cells[12, 0] == 0.0  # weakest item after 12 stages of decay

    def test_zero_decay_repeats_first_row(self):
        matrix = generate_figure_matrix(seed=4, n=5, c=0.0, a=0.2, b=0.8)
        for i in range(5):
            np.testing.assert_array_equal(matrix.cells[i], matrix.cells[0])

    def test_diagonal_product_equals_weakest_first_all_success(self):
        matrix = generate_figure_matrix(seed=11, n=7, c=0.06, a=0.5, b=1.0)
        p0 = matrix.initial_probabilities
        decay = AdditiveDecay.linear(0.06, 7)
        metrics = evaluate_order(p0, sort_order(p0, "ascending"), decay)
        diag = float(np.prod(np.diagonal(matrix.cells)))
        assert diag == metrics.prob_all_success

    @pytest.mark.parametrize("seed", range(20))
    def test_invariants_for_many_seeds(self, seed):
        matrix = generate_figure_matrix(seed=seed, n=13, c=0.06, a=0.5, b=1.0)
        p0 = matrix.initial_probabilities.probs
        want = np.maximum(p0[None, :] - 0.06 * np.arange(13)[:, None], 0.0)
        np.testing.assert_array_equal(matrix.cells, want)
        assert (np.diff(matrix.cells, axis=1) >= 0.0).all()  # ascending across items
        assert (np.diff(matrix.cells, axis=0) <= 0.0).all()  # fading across stages

    def test_generation_is_deterministic_per_seed(self):
        a = generate_figure_matrix(seed=9, n=6, c=0.06, a=0.5, b=1.0)
        b = generate_figure_matrix(seed=9, n=6, c=0.06, a=0.5, b=1.0)
        np.testing.assert_array_equal(a.cells, b.cells)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="bounds"):
            generate_figure_matrix(seed=0, n=3, c=0.1, a=0.9, b=0.5)
        with pytest.raises(ValueError, match="bounds"):
            generate_figure_matrix(seed=0, n=3, c=0.1, a=0.5, b=1.5)
        with pytest.raises(ValueError, match="positive integer"):
            generate_figure_matrix(seed=0, n=0, c=0.1, a=0.5, b=1.0)
        with pytest.raises(ValueError, match="decay step"):
            generate_figure_matrix(seed=0, n=3, c=-0.1, a=0.5, b=1.0)

    def test_constructor_rejects_tampered_cells(self):
        matrix = generate_figure_matrix(seed=2, n=4, c=0.06, a=0.5, b=1.0)
        tampered = matrix.cells.copy()
        tampered[0, 0] += 1e-9
        with pytest.raises(ValueError, match="cells"):
            FigureMatrix(tampered, matrix.initial_probabilities, matrix.decay_step)

    def test_constructor_rejects_unsorted_probabilities(self):
        pv = ProbabilityVector(np.array([0.9, 0.2]))
        cells = np.maximum(pv.probs[None, :] - 0.1 * np.arange(2)[:, None], 0.0)
        with pytest.raises(ValueError, match="ascending"):
            FigureMatrix(cells, pv, 0.1)


class TestFigureRendering:
    def hand_matrix(self):
        return FigureMatrix(
            np.array([[0.25, 0.75], [0.0, 0.25]]),
            ProbabilityVector(np.array([0.25, 0.75])),
            0.5,
        )

    def test_csv_fixed_precision(self):
        assert figure_csv(self.hand_matrix()) == "0.250000,0.750000\n0.000000,0.250000\n"

    def test_csv_header_labels(self):
        want = "stage,item_1,item_2\n1,0.250000,0.750000\n2,0.000000,0.250000\n"
        assert figure_csv(self.hand_matrix(), header=True) == want

    def test_csv_golden_file(self):
        matrix = generate_figure_matrix(seed=1729, n=13, c=0.06, a=0.5, b=1.0)
        golden = (DATA_DIR / "figure_seed1729.csv").read_text()
        assert figure_csv(matrix) == golden

    def test_svg_one_square_per_cell(self):
        svg = figure_svg(self.hand_matrix())
        assert svg.count("<rect") == 2 * 2 + 1  # cells plus background
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")

    def test_svg_size_and_darkness_track_value(self):
        svg = figure_svg(self.hand_matrix())
        # zero cell vanishes; 0.75 cell is bigger and darker than 0.25 cell
        assert 'width="0.000"' in svg
        assert 'fill="rgb(255,255,255)"' in svg
        assert 'width="18.000"' in svg and 'fill="rgb(64,64,64)"' in svg
        assert 'width="6.000"' in svg and 'fill="rgb(191,191,191)"' in svg

    def test_svg_deterministic(self):
        matrix = generate_figure_matrix(seed=5, n=6, c=0.06, a=0.5, b=1.0)
        assert figure_svg(matrix) == figure_svg(matrix)


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

    def test_bad_order_is_a_validation_error(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(SCENARIO_A)
        code, _, err = run_cli(["evaluate", "--scenario", str(scenario), "--order", "0,1,2"], capsys)
        assert code == 2
        assert "length" in err
        code, _, err = run_cli(["evaluate", "--scenario", str(scenario), "--order", "first"], capsys)
        assert code == 2
        assert "--order" in err

    def test_missing_file_is_a_validation_error(self, capsys):
        code, _, err = run_cli(["evaluate", "--scenario", "/does/not/exist.json"], capsys)
        assert code == 2
        assert "error:" in err

    def test_infinite_interval_is_a_validation_error(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            '{"probabilities": [0.5], "decay": {"type": "additive", "rate": 0.1}, "interval": Infinity}'
        )
        code, out, err = run_cli(["evaluate", "--scenario", str(scenario)], capsys)
        assert code == 2
        assert out == ""
        assert "interval must be a finite number" in err

    def test_invalid_scenario_names_the_field(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text('{"probabilities": [2.0], "decay": {"type": "additive", "rate": 0.1}}')
        code, _, err = run_cli(["evaluate", "--scenario", str(scenario)], capsys)
        assert code == 2
        assert "probabilities[0]" in err


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
        want = prob_all_success(stage_probabilities([0.9, 0.5, 0.7], MultiplicativeDecay(0.8)))
        assert payload["value"] == pytest.approx(want, abs=1e-15)

    def test_objective_defaults_to_scenario_field(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            '{"probabilities": [0.8, 0.9, 0.1, 0.2], "decay": {"type": "additive", "rate": 0.1},'
            ' "objective": "all"}'
        )
        code, out, _ = run_cli(
            ["optimize", "--scenario", str(scenario), "--format", "structured"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["objective"] == "all"
        assert payload["order"] == [2, 3, 0, 1]

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
        assert payload["method"] == "recursion"
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
        assert payload["method"] == "recursion"
        model = PopulationModel(n=8, low=0.0, high=1.0, decay_step=0.05)
        assert payload["weakest_first"] == prob_weakest_first_positive(model)

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
        code, out, err = run_cli([*argv, "--n", str(limit + 1)], capsys)
        assert (code, out) == (2, "")
        assert f"argument --n: must be at most {limit}" in err

    @pytest.mark.parametrize(
        "n,limit", [(10_000, 100_000), (13, 76_923_076)], ids=["n10000", "n13"]
    )
    def test_simulate_trials_budget(self, n, limit, monkeypatch, capsys):
        # trials * n may reach 10**9 draws; nothing is drawn for a call past it
        calls = []

        def simulate(model, trials, seed):
            calls.append(trials)
            return (1.0, 0.0), (1.0, 0.0)

        monkeypatch.setattr(decaysched.analysis, "_simulate", simulate)
        argv = ["simulate", "--n", str(n), "--trials"]
        code, out, err = run_cli([*argv, str(limit + 1)], capsys)
        assert (code, out, calls) == (2, "", [])
        assert f"--trials must be at most {limit} at --n {n}" in err
        assert run_cli([*argv, str(limit)], capsys)[0] == 0
        assert calls == [limit]

    def test_simulate_at_population_size_limit(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--n", "10000", "--trials", "1", "--format", "structured"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["n"], payload["trials"]) == (10_000, 1)


class TestCliFigure:
    def test_writes_csv_and_svg(self, tmp_path, capsys):
        csv_path = tmp_path / "fig.csv"
        svg_path = tmp_path / "fig.svg"
        code, out, _ = run_cli(
            ["figure", "--seed", "3", "--n", "5", "--out", str(csv_path), "--out", str(svg_path)],
            capsys,
        )
        assert code == 0
        assert out == ""
        matrix = generate_figure_matrix(seed=3, n=5, c=0.06, a=0.5, b=1.0)
        assert csv_path.read_text() == figure_csv(matrix)
        assert svg_path.read_text() == figure_svg(matrix)

    def test_stdout_csv_when_no_out(self, capsys):
        code, out, _ = run_cli(["figure", "--seed", "3", "--n", "4", "--header"], capsys)
        assert code == 0
        matrix = generate_figure_matrix(seed=3, n=4, c=0.06, a=0.5, b=1.0)
        assert out == figure_csv(matrix, header=True)

    def test_structured_payload_round_trips_cells(self, capsys):
        code, out, _ = run_cli(
            ["figure", "--seed", "6", "--n", "4", "--format", "structured"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        matrix = generate_figure_matrix(seed=6, n=4, c=0.06, a=0.5, b=1.0)
        assert payload["cells"] == [[float(v) for v in row] for row in matrix.cells]
        assert payload["initial_probabilities"] == [float(p) for p in matrix.initial_probabilities]

    def test_rejects_unknown_extension(self, tmp_path, capsys):
        code, _, err = run_cli(["figure", "--out", str(tmp_path / "fig.png")], capsys)
        assert code == 2
        assert ".csv or .svg" in err

    def test_rejects_bad_bounds(self, capsys):
        code, _, err = run_cli(["figure", "--low", "1", "--high", "0.5"], capsys)
        assert code == 2
        assert "bounds" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "decay,message",
        [
            ("inf", "decay rate must be a finite number >= 0, got inf"),
            ("1e308", "decay_per_stage entries must be finite"),  # overflows at stage 2
        ],
        ids=["inf", "1e308"],
    )
    def test_non_finite_decay_is_one_error_line(self, decay, message, capsys):
        code, out, err = run_cli(["figure", "--decay", decay], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestCliPlumbing:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["positivity", "--wat"]) == 2

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
