"""One-line mutants of ``src/decaysched``, each with the verdict the gates should give it.

Run by hand, not by the test suite:

    python3 tests/mutants.py          # every mutant
    python3 tests/mutants.py 0 9      # the mutants at these indices

The script copies ``src/``, ``tests/`` and ``pyproject.toml`` to a
temporary directory and runs the fast gates there on the unchanged copy,
which must pass.  Then, for each mutant, it makes a fresh copy, replaces
one exact piece of one line, and runs the gates again, stopping at the
first failure.  A mutant is killed when a gate fails and survives when
all of them pass.  The script prints one line per mutant and exits 1 if
any verdict differs from the expected one.

A mutant is expected to be "killed", or "equivalent" when it cannot
change any result; its note then says why.  A survivor that is not
equivalent is a gap in the gates: close it with a new test, never by
deleting the mutant.

Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

# the goldens, then the kernels and the modules whose results are records;
# the figure's and the scenario document's tests, with the one of the
# figure's own size check, live with the CLI's
GATES = (
    "tests/test_cli_golden.py",
    "tests/test_library_golden.py",
    "tests/test_kernels.py",
    "tests/test_analysis.py",
    "tests/test_distribution.py",
    "tests/test_decay.py",
    "tests/test_scheduler.py",
    "tests/test_cli.py::TestFigureMatrix",
    "tests/test_cli.py::TestCliFigure",
    "tests/test_cli.py::TestParseScenario",
    "tests/test_cli.py::TestScenarioRoundTrip",
)


class Mutant(NamedTuple):
    module: str  # file name in src/decaysched
    old: str  # occurs exactly once in that file, within one line
    new: str
    expected: str  # "killed" or "equivalent"
    note: str


MUTANTS = (
    # the kernels and the closed forms
    Mutant(
        "analysis.py",
        "first = int(np.searchsorted(thresholds, s[:, :1].min(initial=np.inf)))",
        'first = int(np.searchsorted(thresholds, s[:, :1].min(initial=np.inf), side="right"))',
        "killed",
        "a stage whose threshold equals the smallest draw is skipped",
    ),
    Mutant(
        "analysis.py",
        "descending = (s[:, :1] > thresholds[-1:])",
        "descending = (s[:, :1] >= thresholds[-1:])",
        "killed",
        "strongest first: a smallest draw equal to the last threshold counts as positive",
    ),
    Mutant(
        "analysis.py",
        "descending = (s[:, :1] > thresholds[-1:])",
        "descending = (s[:, :1] > thresholds[:1])",
        "killed",
        "strongest first: the smallest draw faces the first threshold, not the last",
    ),
    Mutant(
        "analysis.py",
        "ascending = np.greater(s[:, first:]",
        "ascending = np.greater_equal(s[:, first:]",
        "killed",
        "a draw equal to its threshold counts as positive",
    ),
    Mutant(
        "analysis.py",
        'first = int(np.searchsorted(c, model.low, side="right"))',
        'first = int(np.searchsorted(c, model.low, side="left"))',
        "killed",
        "a threshold equal to low counts as active",
    ),
    Mutant(
        "scheduler.py",
        "pick = int((folds == target).argmax())",
        "pick = int(folds.size - 1 - (folds[::-1] == target).argmax())",
        "killed",
        "ties go to the largest item instead of the smallest",
    ),
    Mutant(
        "scheduler.py",
        "begin = 1",
        "begin = 0",
        "killed",
        "the size-1 layer's slice starts on the empty set's position",
    ),
    Mutant(
        "scheduler.py",
        "position[subsets ^ (1 << items)]",
        "subsets ^ (1 << items)",
        "killed",
        "preds hold raw bitmasks instead of popcount positions",
    ),
    Mutant(
        "scheduler.py",
        "np.maximum.reduce(prior, axis=0",
        "np.minimum.reduce(prior, axis=0",
        "killed",
        "each subset keeps its worst fold",
    ),
    Mutant(
        "scheduler.py",
        'np.argsort(sizes, kind="stable")',
        "np.argsort(sizes)",
        "killed",
        "subsets of one size leave ascending order: same results, but the plan is wrong",
    ),
    Mutant(
        "analysis.py",
        "1.0 - last**n - (1.0 - last) * float(terms.sum())",
        "1.0 - (1.0 - last) * float(terms.sum())",
        "killed",
        "weakest-first drops the a_n**n term: the event that the last rank fails",
    ),
    Mutant(
        "analysis.py",
        "1.0 - last**n - (1.0 - last) * float(terms.sum())",
        "1.0 - last**n - float(terms.sum())",
        "killed",
        "weakest-first drops the (1 - a_n) factor of Daniels' lemma",
    ),
    Mutant(
        "analysis.py",
        "block = max(1, _MC_ELEMENTS // model.n)",
        "block = max(1, _MC_ELEMENTS // model.n) + 1",
        "equivalent",
        "the seeded stream does not depend on the block size",
    ),
    # the producers whose results are no longer checked by their types
    Mutant(
        "analysis.py",
        "q = min(max(q, 0.0), 1.0)",
        "q = max(q, 0.0)",
        "killed",
        "strongest-first exceeds 1 when no stage can fail",
    ),
    Mutant(
        "analysis.py",
        "for j in range(8, 0, -1):",
        "for j in range(1, 0, -1):",
        "killed",
        "bd0's series near the mean keeps one term of eight",
    ),
    Mutant(
        "analysis.py",
        "/ (1.0 - a)",
        "/ (1.0 - a) / a",
        "killed",
        "the terms take a_j**(j - 1) in place of a_j**j",
    ),
    Mutant(
        "analysis.py",
        "return p, math.sqrt(p * (1.0 - p) / trials)",
        "return p, -math.sqrt(p * (1.0 - p) / trials)",
        "killed",
        "a negative standard error",
    ),
    Mutant(
        "analysis.py",
        "0.02767792568499833914878929,",
        "0.02079067210376509311152277,",
        "killed",
        "one stirlerr table entry off by one: k = 3 takes the value of k = 4",
    ),
    Mutant(
        "decay.py",
        "return rate * np.arange(n, dtype=np.float64)",
        "return np.nan_to_num(rate * np.arange(n, dtype=np.float64), posinf=0.0)",
        "killed",
        "drops that overflow become 0, so the thresholds decrease",
    ),
    Mutant(
        "distribution.py",
        "return SuccessCountPmf(mass)",
        "return SuccessCountPmf(mass[None])",
        "killed",
        "a pmf of shape (1, n + 1)",
    ),
    Mutant(
        "distribution.py",
        "mass = np.convolve(mass, np.array([1.0 - p, p]))",
        "mass = np.convolve(mass, np.array([1.0 - 2 * p, 2 * p]))",
        "killed",
        "negative entries that still sum to 1",
    ),
    Mutant(
        "distribution.py",
        "mass = np.convolve(mass, np.array([1.0 - p, p]))",
        "mass = np.convolve(mass, np.array([1.0 - p, p * (1 + 1e-9)]))",
        "killed",
        "a sum off by about n * 1e-9, inside a 1e-3 tolerance",
    ),
    # the input type, and the array records that no longer check what they hold
    Mutant(
        "distribution.py",
        "arr = np.asarray(self.probs, dtype=np.float64) + 0.0",
        "arr = np.asarray(self.probs, dtype=np.float64)",
        "killed",
        "-0.0 is stored as given, and a float64 input array is frozen in place",
    ),
    Mutant(
        "distribution.py",
        "arr = np.array(values, dtype=np.float64)",
        "arr = np.asarray(values, dtype=np.float64)",
        "killed",
        "records share the caller's array instead of copying it",
    ),
    Mutant(
        "decay.py",
        "and not isinstance(value, bool)",
        "and True",
        "killed",
        "a bool passes the range checks as the number it stands for",
    ),
    Mutant(
        "scheduler.py",
        "p1 = _frozen(self.stage_probabilities)",
        "p1 = np.asarray(self.stage_probabilities, dtype=np.float64)",
        "killed",
        "ScheduleMetrics no longer freezes its copy",
    ),
    Mutant(
        "scheduler.py",
        "order.flags.writeable = False",
        "order.flags.writeable = True",
        "killed",
        "sort_order returns a writeable array",
    ),
    Mutant(
        "scheduler.py",
        "table.flags.writeable = False",
        "table.flags.writeable = True",
        "killed",
        "stage_item_matrix returns a writeable array",
    ),
    Mutant(
        "analysis.py",
        "draws = np.sort(rng.uniform(model.low, model.high, size=model.n))",
        "draws = rng.uniform(model.low, model.high, size=model.n)",
        "killed",
        "the draws are not sorted",
    ),
    # the one check of a decay law, the two sorted-order rules, and the one
    # table of how a document spells each law
    Mutant(
        "decay.py",
        "if not isinstance(decay, (AdditiveDecay, MultiplicativeDecay)):",
        "if False:",
        "killed",
        "_check_law never raises, so a value that is neither law gets through",
    ),
    Mutant(
        "scheduler.py",
        'return "descending"',
        'return "ascending"',
        "killed",
        "expected successes are served weakest first",
    ),
    Mutant(
        "scheduler.py",
        'else "any"',
        'else "ascending"',
        "killed",
        "multiplicative all-success is called ascending instead of any order",
    ),
    Mutant(
        "cli.py",
        '"multiplicative": "factor"',
        '"multiplicative": "rate"',
        "killed",
        "a multiplicative law is read under the name rate",
    ),
    # the closed form's report
    Mutant(
        "analysis.py",
        'method="analytic"',
        '"analytic", 0.0, 5e-14',
        "killed",
        "a deterministic report with a non-zero standard error",
    ),
    # the one reading of a scalar input
    Mutant(
        "decay.py",
        "return math.inf if value > 0 else -math.inf",
        "return math.nan",
        "killed",
        "an int beyond the float range reads as NaN, not as an infinity",
    ),
    Mutant(
        "analysis.py",
        '("low", low)',
        '("low", self.low)',
        "killed",
        "PopulationModel keeps low as given, not as the float that it checked",
    ),
    Mutant(
        "decay.py",
        "and value >= minimum)",
        "and value >= 0)",
        "killed",
        "the integer check ignores its minimum, so n = 0 and trials = 0 pass",
    ),
    # the simulation's own bound
    Mutant(
        "analysis.py",
        "if trials > limit:",
        "if False:",
        "killed",
        "the draw budget never fires, so a huge trial count runs for ever",
    ),
    # the limits on a population's size, each checked once
    Mutant(
        "analysis.py",
        "if n > MAX_POPULATION_N:",
        "if False:",
        "killed",
        "PopulationModel takes any n, so numpy fails later without naming the field",
    ),
    Mutant(
        "cli.py",
        "if args.n > _MAX_FIGURE_N:",
        "if False:",
        "killed",
        "figure renders any population the library accepts, up to 10**8 cells",
    ),
    # the one reading of an objective
    Mutant(
        "scheduler.py",
        "except ValueError:",
        "except TypeError:",
        "killed",
        "an unknown objective raises the enum's own error, which echoes it whole",
    ),
    # one echo, the fold of -0.0 where a scalar is read, a direction that is no
    # str, and the same fold where an echo shows it
    Mutant(
        "decay.py",
        "return _clip(repr(value))",
        "return _clip(str(value))",
        "killed",
        "an echo drops its quotes and type, so the string '0.1' reads as a valid number",
    ),
    Mutant(
        "decay.py",
        "return float(value) + 0.0",
        "return float(value)",
        "killed",
        "a scalar of -0.0 keeps its sign, so a record shows -0.0",
    ),
    Mutant(
        "scheduler.py",
        "isinstance(direction, str)",
        "True",
        "killed",
        "an array direction raises numpy's ambiguous-truth error, which names no field",
    ),
    Mutant(
        "decay.py",
        "isinstance(value, float)",
        "False",
        "killed",
        "an echo keeps the sign of -0.0, so an error shows got -0.0",
    ),
    # one fold per objective: a schedule's value is the left fold the search maximizes
    Mutant(
        "scheduler.py",
        "float(fold.accumulate(np.append(fold.identity, self.stage_probabilities))[-1])",
        "float(fold.reduce(self.stage_probabilities))",
        "killed",
        "ScheduleMetrics sums with np.sum's pairwise reduce again, and multiplies with np.prod's",
    ),
    Mutant(
        "scheduler.py",
        "value = fold.identity",
        "value = 0.0",
        "killed",
        "the search starts every fold from 0.0 instead of the ufunc's identity",
    ),
)


def _copy_tree(destination: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, destination / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", destination / "pyproject.toml")


def _apply(tree: Path, mutant: Mutant) -> None:
    path = tree / "src" / "decaysched" / mutant.module
    text = path.read_text()
    if "\n" in mutant.old or "\n" in mutant.new or text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.module}: {mutant.old!r} is not one exact piece of one line")
    path.write_text(text.replace(mutant.old, mutant.new))


def _gates_pass(tree: Path) -> bool:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *GATES]
    result = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    # 0: every gate passed; 1: a test failed; 2: collection failed (an import broke)
    if result.returncode not in (0, 1, 2):
        raise RuntimeError(f"pytest exited {result.returncode}:\n{result.stdout}{result.stderr}")
    return result.returncode == 0


def _run(mutant: Mutant | None) -> bool:
    with tempfile.TemporaryDirectory(prefix="decaysched-mutant-") as scratch:
        tree = Path(scratch)
        _copy_tree(tree)
        if mutant is not None:
            _apply(tree, mutant)
        return _gates_pass(tree)


def main(argv: list[str]) -> int:
    indices = [int(arg) for arg in argv] or range(len(MUTANTS))
    if not _run(None):
        print("the gates fail on the unchanged tree; fix that first")
        return 1
    wrong = 0
    for index in indices:
        mutant = MUTANTS[index]
        start = time.perf_counter()
        verdict = "survived" if _run(mutant) else "killed"
        ok = (verdict == "killed") == (mutant.expected == "killed")
        wrong += not ok
        print(
            f"{index:2d} {'ok  ' if ok else 'FAIL'} {verdict:8s} {time.perf_counter() - start:5.1f}s "
            f"{mutant.module}: {mutant.note}",
            flush=True,
        )
    print(f"{len(indices) - wrong} of {len(indices)} mutants got their expected verdict")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
