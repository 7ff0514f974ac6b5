"""The package's public names, its one version number, and README's library example."""

import re
from pathlib import Path

import decaysched

ROOT = Path(__file__).parents[1]

# a value as README's comments print it: a number, or a list of numbers
_NUMBER = r"-?\d+(?:\.\d+)?"
_VALUE = rf"\[{_NUMBER}(?:, {_NUMBER})*\]|{_NUMBER}"


def test_public_names_are_listed_once_and_resolve():
    names = decaysched.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(decaysched, name), name
    assert len(names) == 21


def test_version_matches_pyproject():
    # a regex, not tomllib: tomllib needs Python 3.11 and the package supports 3.10
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert match is not None
    assert match.group(1) == decaysched.__version__


def _matches_printed(got, stated: str) -> bool:
    """``got`` equals ``stated`` to the number of decimals it is printed with."""
    if stated.startswith("["):
        items = stated[1:-1].split(", ")
        got = list(got)
        return len(got) == len(items) and all(map(_matches_printed, got, items))
    decimals = len(stated.partition(".")[2])
    return abs(float(got) - float(stated)) <= 0.5 * 10.0**-decimals


def test_readme_library_example_runs_and_gives_the_values_it_states():
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    stated = []
    for line in block.splitlines():
        code, _, comment = (part.strip() for part in line.partition("#"))
        if code and "=" not in code:
            # a bare expression, whose comment opens with its value
            match = re.match(_VALUE, comment)
            stated += [(code, match.group())] if match else []
        elif not code:
            # a comment of its own, naming values: "order = [2, 3, 0, 1], value = 0.0036"
            stated += re.findall(rf"(\w+) = ({_VALUE})", comment)
    # expected_successes, prob_all_success, pmf.mass, order, value and the two reports
    assert len(stated) == 7
    for expression, value in stated:
        got = eval(expression, namespace)
        assert _matches_printed(got, value), f"{expression} is {got!r}, README says {value}"
