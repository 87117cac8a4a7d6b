"""The check-kill matrix: which registry check catches each mutant.

Each mutant replaces one library function, in every module that binds it,
by a copy that breaks one claim of the closed form or of a route that
checks it.  The test runs the registry's checks (wsdirac.checks) on the
cells below, as `wsdirac verify` does, and asserts the exact set of checks
that fail.  The checks that do not shoot run on every cell; the shooting
check, which costs an oracle solve, runs only on the cells a mutant names.

The fold mutants scale one coefficient of params.derive_coefficients or
RadialCoefficients.c0_const.  Every route reads that fold, the oracle too,
so they move together and no check sees the error: those mutants are
expected failures until the oracle integrates the unexpanded equation
(ROADMAP item 17).
"""
from __future__ import annotations

import dataclasses
import math
import sys

import pytest

import wsdirac
from wsdirac import QuantumState, RadialCoefficients, solve_energy
from wsdirac.checks import ROOT_CHECKS, SHOOTING, TAYLOR_MATCH, shooting_agrees

from conftest import BOUND, BOUND_STATE, reference_params

CELLS = {
    "bound-n0": (BOUND, BOUND_STATE),
    "bound-n1": (BOUND, QuantumState(1, 20, 3)),
    # E0 != M: the deformation's Q and kappa_const are nonzero only here
    "bound-e0-12": (dataclasses.replace(BOUND, E0=12.0), BOUND_STATE),
    # a root that is not bound (A > 0)
    "reference-0.01": (reference_params(0.01), BOUND_STATE),
    # above the last bound level: the only cell where the flag's
    # A_n + B_n > 0 half decides
    "bound-n2": (BOUND, QuantumState(2, 20, 3)),
}

# the ground-state route's check catches no mutant: it reads _assemble too.
# Nor does the continuum check: no mutant moves a bound root of these cells
# to the physical edge (it catches the closed form's own flag, ROADMAP item 13)
TAYLOR, MATCHING, ELIMINATION, _, BRACKETING, _ = (
    check.name for check in (TAYLOR_MATCH, *ROOT_CHECKS))
SHOOT = SHOOTING.name
BOUND_CELLS = ("bound-n0", "bound-n1", "bound-e0-12")
ITEM_17 = ("ROADMAP item 17: every route, the oracle too, reads the fold, "
           "so the error moves them together")


def _everywhere(monkeypatch, module, name, make):
    # the function as every module of the package sees it, not only its home
    original = getattr(module, name)
    mutant = make(original)
    for mod in [wsdirac] + [m for key, m in sys.modules.items()
                            if key.startswith("wsdirac.")]:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, mutant)


def _scaled(factor):
    return lambda fn: lambda *args: fn(*args) * factor


def _field_scaled(field, factor):
    # a dataclass result with one field scaled
    def make(fn):
        def mutant(*args):
            out = fn(*args)
            return dataclasses.replace(out, **{field: getattr(out, field) * factor})
        return mutant
    return make


def _radial(field):
    def patch(monkeypatch):
        init = RadialCoefficients.__init__

        def mutant(self, *args):
            init(self, *args)
            setattr(self, field, getattr(self, field) * 1.01)
        monkeypatch.setattr(RadialCoefficients, "__init__", mutant)
    return patch


def _function(module, name, make):
    return lambda monkeypatch: _everywhere(monkeypatch, module, name, make)


def _fold(field):
    return _function(wsdirac.params, "derive_coefficients", _field_scaled(field, 1.01))


def _assemble_q(fn):
    def mutant(p, state):
        eq = fn(p, state)
        return eq._replace(q=eq.q * (1 + 1e-6))
    return mutant


def _wider_shape(fn):
    return lambda r, R, a: fn(r, R, 1.01 * a)


def _flag_without_second_half(fn):
    # normalizable is A_n < 0 < A_n + B_n; an infinite B_n drops the second half
    return lambda eq, *roots: fn(eq._replace(B_n=math.inf), *roots)


def _fold_mutant(name, patch):
    # what the mutant will fail once the oracle no longer reads the fold
    return pytest.param(patch, {SHOOT}, ("bound-e0-12",), id=name, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=ITEM_17))


MUTANTS = [
    # (patch, checks that fail, cells the shooting check runs on, id=name)
    pytest.param(lambda monkeypatch: None, set(), tuple(CELLS), id="none"),
    _fold_mutant("fold-gamma", _fold("gamma")),
    _fold_mutant("fold-v", _fold("v")),
    _fold_mutant("fold-Q", _fold("ml_quartic")),
    _fold_mutant("fold-kappa_const", _fold("kappa_const")),
    _fold_mutant("radial-c0_const", _radial("c0_const")),
    pytest.param(_radial("c2"), {ELIMINATION}, (), id="radial-c2"),
    pytest.param(_radial("frak_u0"), {ELIMINATION}, (), id="radial-frak_u0"),
    pytest.param(_function(wsdirac.spectrum, "_assemble", _assemble_q),
                 {MATCHING, BRACKETING}, (), id="assemble-q"),
    pytest.param(_function(wsdirac.susyqm, "shifted_A", _scaled(1 + 1e-6)),
                 {MATCHING, ELIMINATION, BRACKETING}, (), id="shifted_A"),
    pytest.param(_function(wsdirac.susyqm, "slope_parameter", _scaled(1 + 1e-6)),
                 {MATCHING, ELIMINATION}, (), id="slope_parameter"),
    # B_n of level n, not the B that solve_susy_parameters hands the elimination
    pytest.param(_function(wsdirac.susyqm, "ladder", _scaled(1 + 1e-6)),
                 {MATCHING}, (), id="ladder"),
    pytest.param(_function(wsdirac.pekeris, "pekeris_coefficients",
                           _field_scaled("c1", 1.01)),
                 {TAYLOR}, (), id="pekeris-c1"),
    pytest.param(_function(wsdirac.pekeris, "shape_factor", _wider_shape),
                 {SHOOT}, BOUND_CELLS, id="shape-a"),
    pytest.param(_function(wsdirac.spectrum, "_records", _flag_without_second_half),
                 {SHOOT}, ("bound-n2",), id="flag"),
]


def _failing(shoot_cells) -> set:
    failed = set()
    for cell, (p, state) in CELLS.items():
        result = solve_energy(p, state)
        for check in (TAYLOR_MATCH, *ROOT_CHECKS):
            value = check.metric(p, state, result)
            if value is not None and not value < check.bound:
                failed.add(check.name)
        if cell in shoot_cells and not shooting_agrees(
                result.normalizable, state.n, SHOOTING.metric(p, state, result)):
            failed.add(SHOOT)
    return failed


@pytest.mark.parametrize("patch, caught_by, shoot_cells", MUTANTS)
def test_mutant_is_caught(monkeypatch, patch, caught_by, shoot_cells):
    patch(monkeypatch)
    assert _failing(shoot_cells) == caught_by
