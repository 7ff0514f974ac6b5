"""The package's stated accuracy claims, each checked at large sizes.

Run by hand (about 40 s, nearly all of it in claim 0, Steck's
determinant at n = 300..600):

    python3 tests/accuracy.py

``tests/test_accuracy.py`` runs every other claim in the test suite.

Each claim prints one line: its verdict against the expected one, the
worst measured error and where it was measured, the bound, the margin
(bound minus worst error, negative when the claim fails) and the claim
itself.  A claim is expected to "hold" or to "fail": a failure that is
known and not yet fixed is recorded as expected, as ``tests/mutants.py``
records its survivors, and the fix flips it.  The script exits 1 if any
verdict differs from the expected one.

Standard library, numpy and ``tests/oracles.py`` only.
"""

from __future__ import annotations

import math
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:  # run from a checkout without installing
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from oracles import (  # noqa: E402
    _bound,
    active_ranks,
    gamma,
    prob_weakest_first_positive_steck,
    weakest_first_error_bound,
)

from decaysched import PopulationModel, positivity_report, success_count_pmf  # noqa: E402


class Claim(NamedTuple):
    text: str
    bound: float
    measure: Callable[[], tuple[float, str]]  # the worst error, and where it was seen
    expected: str  # "holds" or "fails"


def _weakest_first(model: PopulationModel) -> float:
    return positivity_report(model).prob_weakest_first_positive


def _steck_error() -> tuple[float, str]:
    """Worst relative error of the closed form against Steck's exact value."""
    models = [
        PopulationModel(150, 0.0, 0.1, 0.0005),
        PopulationModel(300, 0.0, 1.0, 0.003),
        PopulationModel(300, 0.0, 0.1, 0.0003),
        PopulationModel(600, 0.0, 1.0, 0.0015),
        PopulationModel(600, 0.2, 0.8, 0.5 / 599),
    ]
    errors = []
    for model in models:
        exact = prob_weakest_first_positive_steck(model)
        error = abs(Fraction(_weakest_first(model)) - exact) / exact
        errors.append((float(error), f"n={model.n} low={model.low} high={model.high}"))
    return max(errors)


def _line_sum_decimal(model: PopulationModel) -> Decimal:
    """The closed form's sum on the float boundaries, in 50-digit decimal arithmetic.

    The active ranks are consecutive, so each binomial coefficient follows
    from the one before; its 2n roundings move the sum by under 1e-45.
    """
    n = model.n
    ranks = [rank for rank in active_ranks(model) if rank < n]
    with localcontext() as context:
        context.prec = 50
        last = Decimal(_bound(model, n))
        if last >= 1:
            return Decimal(0)
        total = Decimal(0)
        binomial = Decimal(math.comb(n, ranks[0])) if ranks else Decimal(0)
        for rank in ranks:
            a = Decimal(_bound(model, rank))
            total += binomial * a**rank * (1 - a) ** (n - rank - 1)
            binomial = binomial * (n - rank) / (rank + 1)
        return 1 - last**n - (1 - last) * total


def _stated_bound_ratio(models, reference) -> tuple[float, str]:
    """Worst error against ``reference(model)``, as a fraction of the stated absolute bound."""
    ratios = []
    for model in models:
        value = _weakest_first(model)
        error = abs(Fraction(value) - Fraction(reference(model)))
        ratio = float(error) / weakest_first_error_bound(model.n, value)
        ratios.append((ratio, f"n={model.n} low={model.low:.3g} P={value:.3g}"))
    return max(ratios)


def _sweep_model(n: int, seed: int) -> PopulationModel:
    """The model ``_sweep`` draws for ``n`` and ``seed``, before any field is swept.

    ``low`` is drawn below ``1/n``, where weakest-first lies well inside
    (0, 1) and moves with every field; a ``low`` much above that puts the
    boundary so far below the draws that weakest-first reads 1.
    """
    rng = np.random.default_rng(seed)
    step, low = rng.uniform(0.5, 1.0) / n, rng.uniform(0.0, 1.0 / n)
    return PopulationModel(n, low, 1.0, step)


def _decimal_error() -> tuple[float, str]:
    """Against the 50-digit sum: every stage active at n = 200..10**4, and the sweeps' models."""
    models = [PopulationModel(n, 0.0, 1.0, 0.9 / n) for n in (200, 2000, 10**4)]
    models += [_sweep_model(n, seed) for n, seed in ((3000, 1), (3000, 3), (10**4, 4), (10**4, 6))]
    return _stated_bound_ratio(models, _line_sum_decimal)


def _small_p_error() -> tuple[float, str]:
    """Against Steck's determinant at models whose P lies below 0.05."""
    models = [
        PopulationModel(40, 0.0, 1.0, 0.0252),
        PopulationModel(60, 0.0, 1.0, 0.0168),
        PopulationModel(120, 0.0, 1.0, 0.00835),
        PopulationModel(120, 0.0, 1.0, 0.0084),
        PopulationModel(200, 0.0, 1.0, 0.00502),
    ]
    return _stated_bound_ratio(models, prob_weakest_first_positive_steck)


def _sweep(field: str, n: int, seed: int, spacing: float, points: int):
    """Worst monotonicity break of weakest-first along ``field``, over ``points`` values.

    The model is ``_sweep_model(n, seed)``: high = 1, the step uniform in
    [0.5/n, 1/n] and low uniform in [0, 1/n].  The swept field
    then takes ``points`` values ``spacing`` apart, ending at 1 for
    ``high`` and starting at the drawn value otherwise.  Weakest-first must
    not decrease in ``low`` or ``high``, nor increase in ``decay_step``;
    the error is the largest step against that direction.  A sweep whose
    values never move cannot show a break, so it fails with an infinite error.
    """

    def measure() -> tuple[float, str]:
        model = _sweep_model(n, seed)
        drawn = {"n": n, "low": model.low, "high": 1.0, "decay_step": model.decay_step}
        start = 1.0 - (points - 1) * spacing if field == "high" else drawn[field]
        values = []
        for k in range(points):
            values.append(_weakest_first(PopulationModel(**{**drawn, field: start + k * spacing})))
        sign = -1.0 if field == "decay_step" else 1.0
        breaks = [sign * (before - after) for before, after in zip(values, values[1:])]
        where = f"n={n} seed={seed} {min(values)!r}..{max(values)!r}"
        if min(values) == max(values):
            return math.inf, f"{where}, never moves"
        return max(0.0, *breaks), where

    return measure


def _pmf_sum_error() -> tuple[float, str]:
    """Worst distance from 1 of the exact sum of the pmf's entries."""
    errors = []
    for low in (0.0, 0.5, 0.99):
        probs = np.random.default_rng(10**4).uniform(low, 1.0, 10**4)
        total = sum(map(Fraction, success_count_pmf(probs).mass.tolist()), Fraction(0))
        errors.append((float(abs(total - 1)), f"U({low}, 1)"))
    return max(errors)


CLAIMS = (
    Claim(
        "the closed form is within 5e-14 relative of Steck's determinant, n = 150..600",
        5e-14,
        _steck_error,
        "holds",
    ),
    # fixed sweeps: their seeds and spacings were set before their first
    # run, whose verdicts are the expected ones; a decay_step 1e-12 apart
    # moves the last threshold by n * 1e-12, near the 1e-9 of the others
    Claim(
        "weakest-first does not decrease in low, n = 3000",
        0.0,
        _sweep("low", 3000, seed=7, spacing=1e-9, points=2),
        "holds",
    ),
    Claim(
        "weakest-first does not decrease in low, n = 3000, sweep 1",
        0.0,
        _sweep("low", 3000, seed=1, spacing=1e-9, points=9),
        "holds",
    ),
    Claim(
        "weakest-first does not decrease in low, n = 3000, sweep 2",
        0.0,
        _sweep("low", 3000, seed=2, spacing=1e-9, points=9),
        "holds",
    ),
    Claim(
        "weakest-first does not decrease in high, n = 3000",
        0.0,
        _sweep("high", 3000, seed=3, spacing=1e-9, points=9),
        "holds",
    ),
    Claim(
        "weakest-first does not decrease in high, n = 10**4",
        0.0,
        _sweep("high", 10**4, seed=4, spacing=1e-9, points=5),
        "holds",
    ),
    Claim(
        "weakest-first does not increase in decay_step, n = 3000",
        0.0,
        _sweep("decay_step", 3000, seed=5, spacing=1e-12, points=9),
        "holds",
    ),
    Claim(
        "weakest-first does not increase in decay_step, n = 10**4",
        0.0,
        _sweep("decay_step", 10**4, seed=6, spacing=1e-12, points=5),
        "holds",
    ),
    Claim(
        "the closed form is within its stated absolute bound of a 50-digit decimal "
        "evaluation of its sum, n = 200..10**4 (error over the bound)",
        1.0,
        _decimal_error,
        "holds",
    ),
    Claim(
        "the closed form is within its stated absolute bound of Steck's determinant "
        "where P < 0.05, n = 40..200 (error over the bound)",
        1.0,
        _small_p_error,
        "holds",
    ),
    Claim(
        # the stated underflow term, n**2 * 2**-1074, is below gamma_3n's last bit
        "the pmf sums to 1 within gamma_3n, n = 10**4",
        gamma(3 * 10**4),
        _pmf_sum_error,
        "holds",
    ),
)


def judge(claim: Claim) -> tuple[str, float, str]:
    """The claim's verdict, its worst error and where that error was seen."""
    worst, where = claim.measure()
    return "holds" if worst <= claim.bound else "fails", worst, where


def main() -> int:
    wrong = 0
    for index, claim in enumerate(CLAIMS):
        start = time.perf_counter()
        verdict, worst, where = judge(claim)
        ok = verdict == claim.expected
        wrong += not ok
        print(
            f"{index} {'ok  ' if ok else 'FAIL'} {verdict} worst {worst:.3g} ({where}) "
            f"bound {claim.bound:.3g} margin {claim.bound - worst:.3g} "
            f"{time.perf_counter() - start:5.1f}s: {claim.text}",
            flush=True,
        )
    print(f"{len(CLAIMS) - wrong} of {len(CLAIMS)} claims got their expected verdict")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
