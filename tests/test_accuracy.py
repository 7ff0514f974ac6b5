"""The accuracy claims of ``accuracy.py`` that tier-1 can afford.

Claim 0, Steck's determinant at n = 150..600, takes over 30 s and stays a
by-hand check (``python3 tests/accuracy.py``); the others take about 2 s
together.
"""

import math

import accuracy
import pytest
from accuracy import CLAIMS, judge

from decaysched import PopulationModel


@pytest.mark.parametrize("claim", CLAIMS[1:], ids=[claim.text for claim in CLAIMS[1:]])
def test_claim_gets_its_expected_verdict(claim):
    verdict, worst, where = judge(claim)
    assert verdict == claim.expected, f"worst {worst!r} ({where}), bound {claim.bound!r}"


def test_a_sweep_whose_values_never_move_fails(monkeypatch):
    # low far above the boundary: weakest-first reads 1 at every point, so no
    # break could show
    constant = PopulationModel(3000, 0.5, 1.0, 0.1 / 3000)
    monkeypatch.setattr(accuracy, "_sweep_model", lambda n, seed: constant)
    worst, where = accuracy._sweep("low", 3000, seed=1, spacing=1e-9, points=3)()
    assert worst == math.inf and where == "n=3000 seed=1 1.0..1.0, never moves"
