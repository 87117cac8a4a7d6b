"""Superpotential matching, the elimination closed form and the ladder."""
from __future__ import annotations

import warnings
from dataclasses import replace

import pytest

from wsdirac import (
    DegenerateSuperpotential,
    closed_form_A,
    derive_coefficients,
    ladder,
    pekeris_coefficients,
    radial_coefficients,
    shifted_A,
    slope_parameter,
    solve_susy_parameters,
    QuantumState,
    SurfaceRegimeWarning,
)

from conftest import BOUND, BOUND_STATE, DEGENERATE_STATE, random_valid_config, \
    reference_params


def _solved(p, state, E):
    dc = derive_coefficients(p, state)
    pk = pekeris_coefficients(p.R, p.a)
    return dc, pk, solve_susy_parameters(dc, pk, p, E)


class TestMatchingRelations:
    def test_relations_hold_at_random_configs(self, rng):
        for _ in range(25):
            p, state, result = random_valid_config(rng)
            E = result.e_upper
            dc, pk, sp = _solved(p, state, E)
            g = dc.gamma / p.R**2
            k = dc.kappa_const - p.V0 * (E + p.M)
            # relations for the f and f^2 coefficients hold at any energy
            assert 2 * sp.A * sp.B - sp.B / p.a == pytest.approx(k + g * pk.c1,
                                                                abs=1e-9)
            assert sp.B**2 + sp.B / p.a == pytest.approx(dc.v + g * pk.c2,
                                                         abs=1e-9)

    def test_slope_parameter_energy_independent(self):
        _, _, sp1 = _solved(BOUND, BOUND_STATE, 2.0)
        _, _, sp2 = _solved(BOUND, BOUND_STATE, 9.0)
        assert sp1.B == sp2.B
        assert sp1.B == slope_parameter(
            radial_coefficients(BOUND, BOUND_STATE).c2, BOUND.a)

    def test_elimination_route_agrees(self, rng):
        for _ in range(25):
            p, state, result = random_valid_config(rng)
            dc, pk, sp = _solved(p, state, result.e_upper)
            assert closed_form_A(dc, pk, p, result.e_upper) == \
                pytest.approx(sp.A, abs=1e-10)

    def test_degenerate_configuration_raises(self):
        p = reference_params(0.0)
        dc = derive_coefficients(p, DEGENERATE_STATE)
        pk = pekeris_coefficients(p.R, p.a)
        with pytest.raises(DegenerateSuperpotential):
            solve_susy_parameters(dc, pk, p, 5.0)
        with pytest.raises(DegenerateSuperpotential):
            closed_form_A(dc, pk, p, 5.0)

    def test_non_real_slope_elimination_raises(self):
        # gamma < 0 at ell = 0, D = 2, and R/a = 2.4 < 48^(1/4): the
        # elimination's radicand is negative, so B is not real
        with pytest.warns(SurfaceRegimeWarning):
            p = replace(reference_params(0.0), R=1.2)
        dc = derive_coefficients(p, QuantumState(n=0, ell=0, D=2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DegenerateSuperpotential):
                closed_form_A(dc, pekeris_coefficients(p.R, p.a), p, 5.0)


class TestLadder:
    def test_shift(self):
        assert ladder(3.0, 0, 0.5) == 3.0
        assert ladder(3.0, 2, 0.5) == -1.0

    def test_shifted_A_reduces_to_A(self):
        _, _, sp = _solved(BOUND, BOUND_STATE, 8.0)
        frak_u = radial_coefficients(BOUND, BOUND_STATE).frak_u(8.0)
        assert shifted_A(frak_u, sp.B) == pytest.approx(sp.A, rel=1e-15)
