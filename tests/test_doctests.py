import doctest
import importlib
import pkgutil

import pytest

import leaf_atlas

MODULES = sorted(info.name for info in pkgutil.iter_modules(leaf_atlas.__path__, "leaf_atlas."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
