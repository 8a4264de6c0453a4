"""The docstring examples of the modules that have them."""

import doctest

import pytest

from symplext import _linalg, forms, prinparts, ratfield


@pytest.mark.parametrize("module", [ratfield, prinparts, forms, _linalg], ids=lambda m: m.__name__)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
