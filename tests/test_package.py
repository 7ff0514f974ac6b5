"""The package's public names: each listed once, in the module that defines it."""

import decaysched


def test_public_names_are_listed_once_and_resolve():
    names = decaysched.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(decaysched, name), name
    assert len(names) == 26
