"""Analytic ground-state profile: evaluation, normalization, ODE residual."""
from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from wsdirac import (
    NotNormalizable,
    PhysicalParams,
    QuantumState,
    WsdiracError,
    derive_coefficients,
    evaluate,
    log_profile,
    normalize,
    ode_residual,
    pekeris_coefficients,
    second_derivative,
    solve_energy,
    solve_susy_parameters,
)
from wsdirac.wavefunction import peak_radius

from conftest import BOUND, BOUND_STATE


@pytest.fixture(scope="module")
def bound_solution():
    result = solve_energy(BOUND, BOUND_STATE)
    dc = derive_coefficients(BOUND, BOUND_STATE)
    pk = pekeris_coefficients(BOUND.R, BOUND.a)
    sp = solve_susy_parameters(dc, pk, BOUND, result.e_upper)
    return result.e_upper, sp


class TestProfile:
    def test_log_profile_matches_direct_form(self):
        A, B, a, R = -2.0, 5.0, 0.5, 7.0
        for r in (0.5, 6.0, 7.0, 9.0):
            direct = A * r - a * B * math.log(1.0 + math.exp(-(r - R) / a))
            assert log_profile(A, B, a, R, r) == pytest.approx(direct, rel=1e-12)

    def test_log_space_survives_deep_interior(self):
        # naive evaluation of (1 + e^{(R - r)/a})^{-aB} overflows near r = 0
        val = log_profile(-2.0, 500.0, 0.5, 7.0, 0.0)
        assert np.isfinite(val)

    def test_peak_radius_interior(self):
        # slope A + B f vanishes at f = -A/B inside (0, 1)
        A, B, a, R = -2.0, 5.0, 0.5, 7.0
        r_peak = peak_radius(A, B, a, R)
        assert 0.0 < r_peak < math.inf
        eps = 1e-5
        assert log_profile(A, B, a, R, r_peak) > log_profile(A, B, a, R, r_peak - eps)
        assert log_profile(A, B, a, R, r_peak) > log_profile(A, B, a, R, r_peak + eps)

    def test_peak_radius_monotone_cases(self):
        assert peak_radius(-2.0, 1.0, 0.5, 7.0) == 0.0
        assert peak_radius(2.0, 1.0, 0.5, 7.0) == math.inf


def quad_log_norm(A, B, a, R):
    """Reference log N by adaptive quadrature of the profile on [0, inf)."""
    r_peak = peak_radius(A, B, a, R)
    shift = log_profile(A, B, a, R, r_peak)
    r_max = max(r_peak, R + 5.0 * a) + 30.0 / abs(A)
    f = lambda r: math.exp(2.0 * (log_profile(A, B, a, R, r) - shift))
    body, _ = quad(f, 0.0, r_max, points=sorted({r_peak, R}), epsabs=1e-14,
                   epsrel=1e-13, limit=200)
    tail, _ = quad(f, r_max, math.inf)
    return -shift - 0.5 * math.log(body + tail)


def attractive_wells():
    """(A, B, a, R) of every bound ground state on a spread of wells."""
    out = []
    for V0, alpha, ell, D, R in itertools.product(
            (6.0, 10.0, 12.0), (0.0, 0.0015, 0.005), (10, 20, 25), (1, 3, 5),
            (5.0, 7.0, 30.0)):
        p = PhysicalParams(M=10.0, a=0.5, R=R, V0=V0, E0=10.0,
                           alpha_prime=alpha)
        state = QuantumState(n=0, ell=ell, D=D)
        try:
            result = solve_energy(p, state)
        except WsdiracError:
            continue
        if result.normalizable:
            sp = solve_susy_parameters(derive_coefficients(p, state),
                                       pekeris_coefficients(R, p.a), p,
                                       result.e_upper)
            out.append((sp.A, sp.B, p.a, R))
    return out


class TestNormalize:
    def test_closed_form_matches_quadrature(self, bound_solution):
        _, sp = bound_solution
        wells = [(sp.A, sp.B, BOUND.a, BOUND.R)] + attractive_wells()
        assert len(wells) >= 20
        for A, B, a, R in wells:
            wf = normalize(A, B, a, R)
            rel = math.expm1(wf.log_norm - quad_log_norm(A, B, a, R))
            assert abs(rel) <= 1e-12, (A, B, a, R)

    def test_monotone_profile_rejected(self):
        # A < 0 but A + B <= 0: the profile falls from r = 0, no interior peak
        for B in (1.0, 2.0):
            with pytest.raises(NotNormalizable):
                normalize(-2.0, B, 0.5, 7.0)

    def test_unit_norm(self, bound_solution):
        _, sp = bound_solution
        wf = normalize(sp.A, sp.B, BOUND.a, BOUND.R)
        total, _ = quad(lambda r: evaluate(wf, r) ** 2, 0.0, wf.r_max,
                        points=[BOUND.R], limit=200)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_tail_negligible_beyond_r_max(self, bound_solution):
        _, sp = bound_solution
        wf = normalize(sp.A, sp.B, BOUND.a, BOUND.R)
        assert abs(evaluate(wf, wf.r_max)) < 1e-6

    def test_growing_profile_rejected(self):
        with pytest.raises(NotNormalizable):
            normalize(0.5, 5.0, 0.5, 7.0)
        with pytest.raises(NotNormalizable):
            normalize(0.0, 5.0, 0.5, 7.0)


class TestDerivatives:
    def test_second_derivative_vs_finite_difference(self, bound_solution):
        _, sp = bound_solution
        wf = normalize(sp.A, sp.B, BOUND.a, BOUND.R)
        h = 1e-4
        for r in (3.0, 6.5, 7.0, 8.5, 11.0):
            fd = (evaluate(wf, r + h) - 2.0 * evaluate(wf, r)
                  + evaluate(wf, r - h)) / h**2
            assert second_derivative(wf, r) == pytest.approx(fd, rel=1e-4)

    def test_ode_residual_vanishes_at_solution(self, bound_solution):
        E, sp = bound_solution
        wf = normalize(sp.A, sp.B, BOUND.a, BOUND.R)
        for r in (4.0, 6.0, 7.0, 8.0, 10.0):
            scale = max(abs(second_derivative(wf, r)), 1e-300)
            assert abs(ode_residual(wf, E, BOUND, BOUND_STATE, r)) / scale < 1e-10

    def test_ode_residual_nonzero_off_solution(self, bound_solution):
        E, sp = bound_solution
        wf = normalize(sp.A, sp.B, BOUND.a, BOUND.R)
        r = 7.0
        scale = abs(second_derivative(wf, r))
        assert abs(ode_residual(wf, E + 0.1, BOUND, BOUND_STATE, r)) / scale > 1e-6
