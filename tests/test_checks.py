"""The check registry: its agreement rule for the shooting oracle, and the
record it judges."""
from __future__ import annotations

import math
import sys
from dataclasses import replace

import pytest

from wsdirac import cli, spectrum
from wsdirac.checks import BRACKETING, shooting_agrees

from conftest import BOUND, BOUND_STATE

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


def test_verify_solves_the_closed_form_once(capsys, monkeypatch):
    # count every call, through whichever module name the caller resolves
    calls = []
    original = spectrum.solve_energy

    def counting(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("wsdirac") and vars(module).get("solve_energy") is original:
            monkeypatch.setattr(module, "solve_energy", counting)
    assert cli.main(["verify", "--depth", "10", "--alpha-prime", "0.0015"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_bracketing_judges_the_record_it_is_handed():
    result = spectrum.solve_energy(BOUND, BOUND_STATE)
    assert BRACKETING.metric(BOUND, BOUND_STATE, result) < BRACKETING.bound
    moved = replace(result, e_upper=result.e_upper + 1e-6)
    assert BRACKETING.metric(BOUND, BOUND_STATE, moved) >= BRACKETING.bound
