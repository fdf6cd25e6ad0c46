import doctest
import importlib
import pkgutil

import pytest

import stanley

MODULES = sorted(info.name for info in pkgutil.iter_modules(stanley.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    module = importlib.import_module(f"stanley.{name}")
    result = doctest.testmod(module)
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"


def test_examples_are_found():
    # 47 examples when this test was written; a drop means they went unseen.
    attempted = sum(
        doctest.testmod(importlib.import_module(f"stanley.{name}")).attempted
        for name in MODULES
    )
    assert attempted >= 47
