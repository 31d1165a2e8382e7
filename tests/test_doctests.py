import doctest

import pytest

from leaf_atlas import cells, exact_matrix, jsonout, leaves, permutations


@pytest.mark.parametrize("module", [permutations, exact_matrix, cells, leaves, jsonout])
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
