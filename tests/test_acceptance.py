"""Acceptance criteria that run at tier-1 speed (about 7 s together).

Criteria 3 (about 5 s), 6 (about 17 s and 2.3 GB on a 3200^2 grid) and 7
(about 2 s) run only in `shellwrinkle verify`, which runs the whole suite.
"""

import pytest

from shellwrinkle import acceptance


@pytest.mark.parametrize(
    "criterion",
    [acceptance.criterion_1, acceptance.criterion_2, acceptance.criterion_4,
     acceptance.criterion_5, acceptance.criterion_8, acceptance.criterion_9],
    ids=lambda c: c.__name__,
)
def test_criterion_passes(criterion):
    name, passed, detail = criterion()
    assert passed, f"{name}: {detail}"
