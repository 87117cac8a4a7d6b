"""Superpotential matching, partner potentials and shape invariance."""
from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest

from wsdirac import (
    DegenerateSuperpotential,
    LadderSingular,
    SusyParameters,
    closed_form_A,
    derive_coefficients,
    ladder,
    partner_potentials,
    pekeris_coefficients,
    radial_coefficients,
    remainder,
    shape_factor,
    shifted_A,
    slope_parameter,
    solve_susy_parameters,
    superpotential,
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


class TestPartnerPotentials:
    def test_consistent_with_superpotential_derivative(self):
        _, _, sp = _solved(BOUND, BOUND_STATE, 8.0)
        r = np.linspace(1.0, 15.0, 29)
        eps = 1e-6
        phi = superpotential(sp, r, BOUND.a, BOUND.R)
        dphi = (superpotential(sp, r + eps, BOUND.a, BOUND.R)
                - superpotential(sp, r - eps, BOUND.a, BOUND.R)) / (2 * eps)
        v_minus, v_plus = partner_potentials(sp, r, BOUND.a, BOUND.R)
        assert v_minus == pytest.approx(phi**2 - dphi, abs=1e-6)
        assert v_plus == pytest.approx(phi**2 + dphi, abs=1e-6)

    def test_far_field_value(self):
        _, _, sp = _solved(BOUND, BOUND_STATE, 8.0)
        v_minus, v_plus = partner_potentials(sp, 200.0, BOUND.a, BOUND.R)
        assert v_minus == pytest.approx(sp.A**2, rel=1e-12)
        assert v_plus == pytest.approx(sp.A**2, rel=1e-12)


class TestShapeInvariance:
    def test_partner_equals_shifted_minus_plus_constant(self, rng):
        for _ in range(10):
            p, state, result = random_valid_config(rng, require_ladder=True)
            _, _, sp = _solved(p, state, result.e_upper)
            b1 = ladder(sp.B, 1, p.a)
            sp1 = SusyParameters(A=shifted_A(sp.frak_u, b1), B=b1,
                                 frak_u=sp.frak_u)
            r = np.linspace(0.1, p.R + 10 * p.a, 60)
            _, v_plus = partner_potentials(sp, r, p.a, p.R)
            v_minus_shifted, _ = partner_potentials(sp1, r, p.a, p.R)
            diff = v_plus - v_minus_shifted
            assert np.max(diff) - np.min(diff) < 1e-9
            assert np.mean(diff) == pytest.approx(remainder(sp, 1, p.a), abs=1e-9)

    def test_telescoping_sum(self, rng):
        for _ in range(10):
            p, state, result = random_valid_config(rng, require_ladder=True)
            _, _, sp = _solved(p, state, result.e_upper)
            for n in (1, 2, 3):
                total = sum(remainder(sp, i, p.a) for i in range(1, n + 1))
                expected = sp.A**2 - shifted_A(sp.frak_u, ladder(sp.B, n, p.a))**2
                assert total == pytest.approx(expected, abs=1e-10)


class TestLadder:
    def test_shift(self):
        assert ladder(3.0, 0, 0.5) == 3.0
        assert ladder(3.0, 2, 0.5) == -1.0

    def test_shifted_A_reduces_to_A(self):
        _, _, sp = _solved(BOUND, BOUND_STATE, 8.0)
        assert shifted_A(sp.frak_u, sp.B) == pytest.approx(sp.A, rel=1e-15)

    def test_remainder_rejects_step_zero(self):
        sp = SusyParameters(A=1.0, B=3.0, frak_u=2.0)
        with pytest.raises(ValueError):
            remainder(sp, 0, 0.5)

    def test_remainder_singular_ladder_step(self):
        # B = 1/a makes B_1 vanish exactly
        sp = SusyParameters(A=1.0, B=2.0, frak_u=2.0)
        with pytest.raises(LadderSingular):
            remainder(sp, 1, 0.5)


def test_superpotential_asymptotes():
    _, _, sp = _solved(BOUND, BOUND_STATE, 8.0)
    assert superpotential(sp, 200.0, BOUND.a, BOUND.R) == pytest.approx(-sp.A,
                                                                        rel=1e-12)
    f0 = shape_factor(0.0, BOUND.R, BOUND.a)
    assert superpotential(sp, 0.0, BOUND.a, BOUND.R) == \
        pytest.approx(-(sp.A + sp.B * f0), rel=1e-12)
