"""The check registry: its agreement rule for the shooting oracle, and the
record it judges."""
from __future__ import annotations

import math
import sys
from dataclasses import replace

import pytest

from wsdirac import cli, derive_coefficients, spectrum
from wsdirac.checks import BRACKETING, CONTINUUM, shooting_agrees

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
    moved = result._replace(e_upper=result.e_upper + 1e-6)
    assert BRACKETING.metric(BOUND, BOUND_STATE, moved) >= BRACKETING.bound


@pytest.mark.parametrize("e0, edge", [(10.0, 10.0), (12.0, 10.286)])
def test_continuum_margin_rule(e0, edge):
    # the margin E^2 - (M^2 + Q) passes below the edge sqrt(M^2 + Q) and
    # fails at and above it; a root that is not normalizable is skipped
    p = replace(BOUND, E0=e0)
    result = spectrum.solve_energy(p, BOUND_STATE)
    assert math.sqrt(p.M**2 + derive_coefficients(p, BOUND_STATE).ml_quartic) \
        == pytest.approx(edge, abs=1e-3)

    def margin(E, normalizable=True):
        return CONTINUUM.metric(p, BOUND_STATE, result._replace(
            e_upper=E, normalizable=normalizable))

    assert result.normalizable and margin(result.e_upper) < CONTINUUM.bound
    assert margin(edge - 1e-3) < CONTINUUM.bound <= margin(edge + 1e-3)
    if e0 == p.M:  # Q = 0: the margin at E = M is exactly 0, and fails
        assert margin(p.M) == CONTINUUM.bound
    assert margin(edge + 1.0, normalizable=False) is None
