"""Every docstring example in the package runs and passes."""

import doctest
import importlib
import inspect
import pkgutil

import pytest

import rightq

MODULES = ["rightq"] + sorted(
    f"rightq.{info.name}" for info in pkgutil.iter_modules(rightq.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(name)
    results = doctest.testmod(module)
    assert results.failed == 0
    if ">>>" in inspect.getsource(module):
        assert results.attempted > 0
