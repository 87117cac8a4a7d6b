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
from wsdirac import wavefunction
from wsdirac.wavefunction import _log_beta_complement, peak_radius

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


def mp_log_tail(p, q, y0):
    """log J at 50 digits, J = int_y0^1 t^(p-1) (1 - t)^(q-1) dt = B(p, q)
    [1 - I_y0(p, q)], for mpf p, q and y0 within a 50-digit context.

    mp.betainc(a, b, 0, z) sums a 2F1 series in z whose parameter 1 - b
    converges where b is at most about 1e3 (at b = 1e6 and 1e8 it did not):
    J = B(p, q) - betainc(p, q, 0, y0) where q <= p, and by the symmetry
    J = betainc(q, p, 0, 1 - y0) where p < q; the other form where the
    first one's series fails (1 - y0 near 1).  Where p and q both pass
    1e3, J is mp.quad of the integrand over its peak, m +- 20 sigma (the
    Beta distribution's mode and spread), or from y0 over 200 e-folds of
    its decay where y0 lies past the peak: what is left out is below
    e^-200 of J."""
    from mpmath import mp

    if min(p, q) > 1e3:
        phi = lambda t: (p - 1) * mp.log(t) + (q - 1) * mp.log1p(-t)
        m, s = (p - 1) / (p + q - 2), mp.sqrt(p * q / (p + q) ** 3)
        if y0 >= m + 20 * s:
            slope = abs((p - 1) / y0 - (q - 1) / (1 - y0))
            points = [y0, y0 + 200 / slope]
        elif y0 >= m:
            points = [y0, m + 20 * s]
        else:
            points = [max(y0, m - 20 * s), m, m + 20 * s]
        top = phi(max(y0, m))
        return top + mp.log(mp.quad(lambda t: mp.exp(phi(t) - top), points))
    forms = [lambda: mp.beta(p, q) - mp.betainc(p, q, 0, y0),
             lambda: mp.betainc(q, p, 0, 1 - y0)]
    for form in forms if q <= p else forms[::-1]:
        try:
            J = form()
        except (ValueError, mp.NoConvergence):
            continue
        if mp.isfinite(J) and mp.im(J) == 0 and J > 0:
            return mp.log(J)
    raise AssertionError(f"no mpmath form of J converged at p = {p}, q = {q}")


def mp_log_norm(A, B, a, R):
    """Reference log N at 50 digits, from the exact values of the float
    inputs: log N = -(log a + 2AR + log J)/2 (see mp_log_tail)."""
    from mpmath import mp

    with mp.workdps(50):
        A, B, a, R = (mp.mpf(v) for v in (A, B, a, R))
        y0 = 1 / (1 + mp.exp(R / a))
        log_J = mp_log_tail(2 * a * (A + B), -2 * a * A, y0)
        return -(mp.log(a) + 2 * A * R + log_J) / 2


def assert_matches_reference(A, B, a, R):
    ref = mp_log_norm(A, B, a, R)
    log_norm = normalize(A, B, a, R).log_norm
    assert abs(log_norm - ref) <= 1e-13 * max(1.0, abs(ref)), (A, B, a, R)


class TestNormReferences:
    # p and q as their float inputs A = -q, B = p + q give them (a = 1/2),
    # so one far below the other, p = 1e-2 against q = 1e8, is near 1e-2
    GRID = (1e-2, 0.5, 3.0, 50.0, 1e3, 1e6, 1e8)

    @pytest.mark.parametrize("p", GRID)
    def test_grid(self, p):
        for q, t in itertools.product(self.GRID, (1e-3, 0.05, 1.0, 14.0, 60.0)):
            assert_matches_reference(-q, p + q, 0.5, 0.5 * t)

    def test_bound(self, bound_solution):
        _, sp = bound_solution
        assert_matches_reference(sp.A, sp.B, BOUND.a, BOUND.R)

    @pytest.mark.parametrize("A, B, a, R", [(-2000.0, 2000.5, 0.5, 0.05),
                                            (-1e4, 1e4 + 1e-3, 0.5, 0.005)])
    def test_complement_near_zero(self, A, B, a, R):
        # 1 - I is about e^-1293 and e^-6897 here: its float underflows to 0,
        # and its log, taken of that float, was a math domain error
        assert_matches_reference(A, B, a, R)

    @pytest.mark.parametrize("p", [1e-6, 1e-10, 1e-15])
    def test_near_the_normalizable_edge(self, p):
        # A + B = p just above 0: I nears 1 and 1 - I is about p, which its
        # power series keeps; taken as 1 - I of the continued fraction's I,
        # log(1 - I) was off by 5e-12 at p = 1e-4, 1e-7 at 1e-8 and 2e-2 at
        # 1e-13 (q = 0.5, R/a = 1), and a math domain error at 1e-15
        for q, t in itertools.product((0.5, 5.0), (1.0, 14.0)):
            assert_matches_reference(-q, q + p, 0.5, 0.5 * t)

    @pytest.mark.parametrize("p, q, t", [(1e6, 1e6, 1e-3), (1e8, 1e8, 1e-5),
                                         (1e6, 1e8, math.log(100.0))])
    def test_prefactor_near_the_peak(self, p, q, t):
        # log(1 - I) itself, where I is near 1/2 at large p and q: with the
        # prefactor z^a (1 - z)^b / (a B(a, b)) from log B, it was off by
        # 6e-11, 9e-9 and 5e-10 on these cells; Stirling's form in lam keeps
        # 1e-11
        from mpmath import mp

        with mp.workdps(50):
            y0 = 1 / (1 + mp.exp(mp.mpf(t)))
            ref = mp_log_tail(mp.mpf(p), mp.mpf(q), y0) - mp.log(mp.beta(p, q))
        assert abs(_log_beta_complement(p, q, t) - ref) <= 1e-11


def test_slow_fraction_is_typed(monkeypatch):
    # a continued fraction that takes more than _MAX_PAIRS pairs raises
    # ArithmeticError, which the CLI reports with exit 2, and does not run on
    monkeypatch.setattr(wavefunction, "_MAX_PAIRS", 3)
    with pytest.raises(ArithmeticError, match="continued fraction"):
        normalize(-1e6, 2e6, 0.5, 5e-4)


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
