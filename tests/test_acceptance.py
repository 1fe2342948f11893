"""Acceptance criteria that run at tier-1 speed (about 10 s together).

Criteria 6 (1.6-2.3 s and 710 MB `ru_maxrss` on a 3200^2 grid, alone in a
fresh process on a 2-CPU box with one BLAS thread, its row blocks on both
CPUs) and 7 (about 1.4 s) run only in `shellwrinkle verify`, which runs the
whole suite.
"""

import pytest

from shellwrinkle import acceptance


@pytest.mark.parametrize(
    "criterion",
    [acceptance.criterion_1, acceptance.criterion_2, acceptance.criterion_3,
     acceptance.criterion_4, acceptance.criterion_5, acceptance.criterion_8,
     acceptance.criterion_9],
    ids=lambda c: c.__name__,
)
def test_criterion_passes(criterion):
    name, passed, detail = criterion()
    assert type(passed) is bool, f"{name}: passed is {type(passed).__name__}"
    assert passed, f"{name}: {detail}"
