"""The accuracy claims of ``accuracy.py`` that tier-1 can afford.

Claim 0, Steck's determinant at n = 150..600, takes over 30 s and stays a
by-hand check (``python3 tests/accuracy.py``); the others take about 2 s
together.
"""

import pytest
from accuracy import CLAIMS, judge


@pytest.mark.parametrize("claim", CLAIMS[1:], ids=[claim.text for claim in CLAIMS[1:]])
def test_claim_gets_its_expected_verdict(claim):
    verdict, worst, where = judge(claim)
    assert verdict == claim.expected, f"worst {worst!r} ({where}), bound {claim.bound!r}"
