"""The package's public names."""

import hyperinv


def test_every_public_name_resolves_once():
    names = hyperinv.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(hyperinv, name, None) is not None, name
