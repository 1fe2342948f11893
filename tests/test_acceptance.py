"""Acceptance criteria that run at tier-1 speed (about 6 s together).

Criteria 2, 3, 5, 6 and 7 take from seconds to minutes and a 3200^2 grid;
`shellwrinkle verify` runs the whole suite.
"""

import pytest

from shellwrinkle import acceptance


@pytest.mark.parametrize(
    "criterion",
    [acceptance.criterion_1, acceptance.criterion_4, acceptance.criterion_8,
     acceptance.criterion_9],
    ids=lambda c: c.__name__,
)
def test_criterion_passes(criterion):
    name, passed, detail = criterion()
    assert passed, f"{name}: {detail}"
