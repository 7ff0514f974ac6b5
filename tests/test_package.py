"""The package's public names, each listed once, and its one version number."""

import re
from pathlib import Path

import decaysched


def test_public_names_are_listed_once_and_resolve():
    names = decaysched.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(decaysched, name), name
    assert len(names) == 26


def test_version_matches_pyproject():
    # a regex, not tomllib: tomllib needs Python 3.11 and the package supports 3.10
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert match is not None
    assert match.group(1) == decaysched.__version__
