"""Every entry of ``tests/mutants.py`` still applies to today's source.

The mutant run itself takes minutes and is made by hand; a mutant left
stale by a moved or edited line would only surface there, part-way
through.  This checks the list in well under a second.
"""

from pathlib import Path

import pytest
from mutants import MUTANTS

import decaysched

PACKAGE = Path(decaysched.__file__).parent


@pytest.mark.parametrize("mutant", MUTANTS, ids=[f"{i}-{m.module}" for i, m in enumerate(MUTANTS)])
def test_mutant_applies_to_exactly_one_piece_of_one_line(mutant):
    path = PACKAGE / mutant.module
    assert path.is_file(), f"{mutant.module} is not a module of the package"
    assert "\n" not in mutant.old and "\n" not in mutant.new
    assert path.read_text().count(mutant.old) == 1, f"{mutant.old!r} must occur exactly once"
    assert mutant.new != mutant.old
    assert mutant.expected in ("killed", "equivalent")
