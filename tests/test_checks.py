"""The check registry's agreement rule for the shooting oracle."""
from __future__ import annotations

import math

import pytest

from wsdirac.checks import shooting_agrees

# no shooting state in the bracket, one inside the bound, one outside it
GAPS = (math.inf, 5e-4, 2e-3)


@pytest.mark.parametrize("normalizable, n, agrees", [
    # a bound root needs a shooting state within the bound, at every level
    (True, 0, (False, True, False)),
    (True, 1, (False, True, False)),
    # a root that is not bound needs no state in its bracket at n = 0; at
    # n >= 1, where genuine neighbouring levels share it, none within the bound
    (False, 0, (True, False, False)),
    (False, 2, (True, False, True)),
])
def test_shooting_agreement_rule(normalizable, n, agrees):
    assert tuple(shooting_agrees(normalizable, n, gap) for gap in GAPS) == agrees
