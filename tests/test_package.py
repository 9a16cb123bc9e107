"""The package's public surface."""

import types

import tensegrity


def test_all_lists_public_names_only():
    assert "__version__" in tensegrity.__all__
    assert len(set(tensegrity.__all__)) == len(tensegrity.__all__)
    for name in tensegrity.__all__:
        value = getattr(tensegrity, name)
        assert not isinstance(value, types.ModuleType), name
