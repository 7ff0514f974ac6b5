"""CLI stdout, byte for byte, against recorded output.

``data/cli_stdout.json`` maps each case id below to the exact stdout the
CLI printed for it.  A change that is meant to keep output identical must
pass this file unchanged; a change that alters output on purpose records
the new text there and says so.
"""

import io
import json
from pathlib import Path

import pytest

from decaysched.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_stdout.json").read_text())

ADDITIVE = (
    '{"probabilities": [0.8, 0.9, 0.1, 0.2, 0.55, 0.35],'
    ' "decay": {"type": "additive", "rate": 0.12}}'
)
MULTIPLICATIVE = (
    '{"probabilities": [0.8, 0.9, 0.1, 0.2, 0.55, 0.35],'
    ' "decay": {"type": "multiplicative", "factor": 0.85}}'
)
SCENARIOS = {"additive": ADDITIVE, "multiplicative": MULTIPLICATIVE}

# id -> (scenario read from stdin or None, argv without --format)
CASES = {
    "evaluate-identity": ("additive", ["evaluate"]),
    "evaluate-ascending": ("additive", ["evaluate", "--order", "ascending"]),
    "evaluate-explicit": ("additive", ["evaluate", "--order", "4,0,5,2,1,3"]),
    "evaluate-multiplicative-descending": (
        "multiplicative", ["evaluate", "--order", "descending"]
    ),
    **{
        f"optimize-{method}-{objective}-{law}": (
            law, ["optimize", "--method", method, "--objective", objective]
        )
        for method in ("brute", "sort")
        for objective in ("expected", "all")
        for law in ("additive", "multiplicative")
    },
    # no --objective: the default objective, expected
    "optimize-default-objective": ("additive", ["optimize"]),
    "simulate-default": (None, ["simulate"]),
    "simulate-model": (
        None,
        ["simulate", "--n", "6", "--decay", "0.15", "--low", "0.2", "--high", "0.9",
         "--trials", "20000", "--seed", "42"],
    ),
    # at n = 10000 a Monte Carlo block holds 6 rows, so 13 trials run as
    # blocks of 6, 6 and 1; --low 0 leaves estimates that a block miscount moves
    "simulate-partial-block-weakest": (
        None,
        ["simulate", "--n", "10000", "--trials", "13", "--seed", "5", "--low", "0",
         "--decay", "0.00009"],
    ),
    "simulate-partial-block-strongest": (
        None,
        ["simulate", "--n", "10000", "--trials", "13", "--seed", "5", "--low", "0",
         "--decay", "1e-8"],
    ),
    "positivity-default": (None, ["positivity"]),
    "positivity-model": (
        None, ["positivity", "--n", "8", "--decay", "0.05", "--low", "0", "--high", "1"]
    ),
    # the last threshold, 4 * 0.125, equals --low: no stage can fail
    "positivity-last-threshold-at-low": (
        None, ["positivity", "--n", "5", "--low", "0.5", "--decay", "0.125"]
    ),
    # one stage more: rank 6 is the first and only one that can fail
    "positivity-first-active-rank-6": (
        None, ["positivity", "--n", "6", "--low", "0.5", "--decay", "0.125"]
    ),
    # every threshold from stage 2 on is beyond --high, and the last overflows
    "positivity-huge-decay": (None, ["positivity", "--decay", "1e308"]),
    # the reference figure (tests/data/figure_seed1729.csv), and --header on a small one
    "figure-seed-1729": (None, ["figure", "--seed", "1729"]),
    "figure-n5-header": (None, ["figure", "--n", "5", "--header"]),
}
FORMATS = ("text", "structured")
# figure alone also renders an SVG; --header applies to its CSV only
SVG_CASES = ("figure-seed-1729",)
RECORDED = [(case, fmt) for case in CASES for fmt in FORMATS]
RECORDED += [(case, "svg") for case in SVG_CASES]


def run(case: str, fmt: str, monkeypatch, capsys) -> str:
    scenario, argv = CASES[case]
    monkeypatch.setattr("sys.stdin", io.StringIO(SCENARIOS[scenario] if scenario else ""))
    code = main([*argv, "--format", fmt])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    return captured.out


def test_every_recorded_case_is_run():
    assert set(GOLDEN) == {f"{case}-{fmt}" for case, fmt in RECORDED}


@pytest.mark.parametrize("case,fmt", RECORDED, ids=[f"{case}-{fmt}" for case, fmt in RECORDED])
def test_stdout_matches_recording(case, fmt, monkeypatch, capsys):
    assert run(case, fmt, monkeypatch, capsys) == GOLDEN[f"{case}-{fmt}"]
