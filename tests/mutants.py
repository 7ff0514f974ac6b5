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

# the goldens, then the kernels and the modules whose results are records
GATES = (
    "tests/test_cli_golden.py",
    "tests/test_library_golden.py",
    "tests/test_kernels.py",
    "tests/test_analysis.py",
    "tests/test_distribution.py",
    "tests/test_decay.py",
)


class Mutant(NamedTuple):
    module: str  # file name in src/decaysched
    old: str  # occurs exactly once in that file, within one line
    new: str
    expected: str  # "killed" or "equivalent"
    note: str


MUTANTS = (
    # the kernels and the recursion
    Mutant(
        "_kernels.py",
        "live = np.flatnonzero(thresholds >= s",
        "live = np.flatnonzero(thresholds > s",
        "killed",
        "a stage whose threshold equals the smallest draw is skipped",
    ),
    Mutant(
        "_kernels.py",
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
        "_kernels.py",
        "pick = int((folds == target).argmax())",
        "pick = int(folds.size - 1 - (folds[::-1] == target).argmax())",
        "killed",
        "ties go to the largest item instead of the smallest",
    ),
    Mutant(
        "_kernels.py",
        "begin = 1",
        "begin = 0",
        "killed",
        "the size-1 layer's slice starts on the empty set's position",
    ),
    Mutant(
        "_kernels.py",
        "position[subsets ^ (1 << items)]",
        "subsets ^ (1 << items)",
        "killed",
        "preds hold raw bitmasks instead of popcount positions",
    ),
    Mutant(
        "_kernels.py",
        "np.maximum.reduce(prior, axis=0",
        "np.minimum.reduce(prior, axis=0",
        "killed",
        "each subset keeps its worst fold",
    ),
    Mutant(
        "_kernels.py",
        'np.argsort(sizes, kind="stable")',
        "np.argsort(sizes)",
        "killed",
        "subsets of one size leave ascending order: same results, but the plan is wrong",
    ),
    Mutant(
        "analysis.py",
        "weights = flushed(np.convolve(weights, pmf)[:rank])",
        "weights = flushed(np.convolve(weights, pmf)[:rank + 1])",
        "killed",
        "rank k keeps the count k, which fails it",
    ),
    Mutant(
        "analysis.py",
        "_FLUSH_BELOW = 2.0**-511",
        "_FLUSH_BELOW = 2.0**-45",
        "killed",
        "moves the recursion by over 1.4e-13 at n = 120; Steck's determinant sees it",
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
        "return float(min(max(value, 0.0), 1.0))",
        "return float(value)",
        "killed",
        "weakest-first can exceed 1 by its rounding",
    ),
    Mutant(
        "analysis.py",
        'return PositivityReport(strongest, 1.0, method="analytic")',
        'return PositivityReport(strongest, 1.0, method="analytical")',
        "killed",
        "a method name outside the documented three",
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
        "_weakest_first(model, c, first), method=\"recursion\")",
        "_weakest_first(model, c, first), \"recursion\", 0.0, 5e-14)",
        "killed",
        "a deterministic report with a non-zero standard error",
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
