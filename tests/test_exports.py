"""Every name the package exports resolves."""

import pytest

import aoimux


@pytest.mark.parametrize("name", aoimux.__all__)
def test_exported_name_resolves(name):
    assert hasattr(aoimux, name)
