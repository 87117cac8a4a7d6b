"""Analytic ground-state radial function, normalization and residual checks.

The reduced radial function is

    F(r) = N exp(A r) (1 + exp(-(r - R)/a))^(-a B)

evaluated in log space throughout, N included; the r^-(D-1)/2 spinor
prefactor is not folded in.  F(0) is small but nonzero, an inherent feature
of the centrifugal replacement.  N is an incomplete beta function in closed
form, evaluated with the standard library alone (_log_beta,
_log_beta_complement), so the module loads no scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotNormalizable
from .params import PhysicalParams, QuantumState, radial_coefficients
from .pekeris import shape_factor


@dataclass(frozen=True)
class RadialWaveFunction:
    """Ground-state radial amplitude exp(log_norm + log_profile(r)).

    log_norm is 0.0 for an unnormalized profile (as built directly);
    normalize() returns unit L2 norm on [0, inf) and a sampling range r_max.
    """

    A: float
    B: float
    a: float
    R: float
    log_norm: float
    r_max: float


def log_profile(A: float, B: float, a: float, R: float, r):
    """log of the unnormalized amplitude: A r - a B log(1 + exp(-(r - R)/a))."""
    r = np.asarray(r, dtype=float)
    return A * r - a * B * np.logaddexp(0.0, -(r - R) / a)


def evaluate(wf: RadialWaveFunction, r):
    """Amplitude N exp(A r) (1 + exp(-(r-R)/a))^(-a B), log-space evaluation."""
    out = np.exp(wf.log_norm + log_profile(wf.A, wf.B, wf.a, wf.R, r))
    if np.ndim(r) == 0:
        return float(out)
    return out


def peak_radius(A: float, B: float, a: float, R: float) -> float:
    """Radius maximizing the profile on [0, inf); endpoints when the slope
    A + B f never vanishes."""
    if B != 0.0:
        f_star = -A / B
        if 0.0 < f_star < 1.0:
            return R + a * math.log(1.0 / f_star - 1.0)
    # monotone profile: slope sign at the origin decides
    return 0.0 if A + B * shape_factor(0.0, R, a) <= 0.0 else math.inf


# Stirling's series of lgamma(z) - ((z - 1/2) log z - z + log(2 pi) / 2):
# B_2k / (2k (2k - 1)) z^(1 - 2k), k = 1..7; from z = _STIRLING_MIN on, its
# first omitted term is below 3e-17 of the first
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156)
_STIRLING_MIN = 10.0


def _stirling(z: float) -> float:
    """The series of _STIRLING at z >= _STIRLING_MIN."""
    w, s = 1.0 / (z * z), 0.0
    for c in reversed(_STIRLING):
        s = s * w + c
    return s / z


def _stirling_step(s: float, b: float) -> float:
    """_stirling(b + s) - _stirling(b), b >= _STIRLING_MIN, term by term as
    b^(1 - 2k) ((1 + s/b)^(1 - 2k) - 1), each to a few ulps even at s << b."""
    r = math.log1p(s / b)
    return sum(c * b ** (1 - 2 * k) * math.expm1((1 - 2 * k) * r)
               for k, c in enumerate(_STIRLING, 1))


def _log_gamma_ratio(s: float, b: float) -> float:
    """lgamma(b + s) - lgamma(b), s >= 0, b > 0, to a few ulps of itself even
    at s << b: Stirling's series taken as a difference (as TOMS 708's
    algdiv), at b raised past _STIRLING_MIN by Gamma(z + 1) = z Gamma(z)."""
    shift = 0.0
    while b < _STIRLING_MIN:
        shift, b = shift + math.log1p(s / b), b + 1.0
    r = math.log1p(s / b)
    return ((b + s - 0.5) * r + s * (math.log(b) - 1.0) + _stirling_step(s, b)
            - shift)


def _log_beta(p: float, q: float) -> float:
    """log B(p, q), p, q > 0.  With a <= b: where b reaches _STIRLING_MIN,
    lgamma(a) - _log_gamma_ratio(a, b), not two lgammas that cancel where
    b >> a; below it, three lgammas of arguments under 20."""
    a, b = sorted((p, q))
    if b < _STIRLING_MIN:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return math.lgamma(a) - _log_gamma_ratio(a, b)


# Lentz's method: what a vanishing denominator is taken as (Numerical
# Recipes' FPMIN), its relative tolerance, and its most pairs of terms; at
# z0 = a/(a + b) the fraction takes about 4 (a + b)^(1/3) pairs, so 10^6 of
# them reach a + b = 1e16
_TINY = 1e-300
_EPS = 2.0 ** -52
_MAX_PAIRS = 10 ** 6


def _log_beta_complement(p: float, q: float, t: float) -> float:
    """log(1 - I_x(p, q)) at x = 1/(1 + e^t), p, q > 0, by one of three
    routes about the point x = (p + 1)/(p + q + 2).

    - Below it with p < 1: the power series of DLMF 8.17.8,
      I = C x^p (1 + p S), C = 1/(p B(p, q)),
      S = sum_(n >= 1) (1 - q)_n x^n / (n! (p + n)).  So
      1 - I = -expm1(u) - e^u p S with u = log C + p log x, which keeps
      its digits as I nears 1 (p near 0).
    - Below it with p >= 1: I by the continued fraction, then log(1 - I);
      there I stays away from 1.
    - Past it: the complement directly, 1 - I_x(p, q) = I_(1-x)(q, p), its
      log the prefactor's plus the fraction's, never the log of a float
      that underflowed.

    The continued fraction of DLMF 8.17.22, by Lentz's method, gives
    I_z(a, b) = z^a (1 - z)^b / (a B(a, b)) / (1 + d_1/(1 + d_2/(1 + ...)));
    it converges fast below z = (a + 1)/(a + b + 2).  The prefactor stays in
    log space, with log x and log(1 - x) exact in t.  Where a and b both
    reach _STIRLING_MIN it is Stirling's form in lam = a (1 - z) - b z (as
    TOMS 708's brcomp), whose terms do not cancel near the peak
    z0 = a/(a + b).  Raises ArithmeticError where the fraction takes over
    _MAX_PAIRS pairs of terms.
    """
    e = math.exp(-abs(t))
    less = e / (1.0 + e), -abs(t) - math.log1p(e)
    more = 1.0 / (1.0 + e), -math.log1p(e)
    (x, lx), (y, ly) = (less, more) if t >= 0.0 else (more, less)
    swap = x > (p + 1.0) / (p + q + 2.0)
    if not swap and p < 1.0:
        u = _log_gamma_ratio(p, q) - _log_gamma_ratio(p, 1.0) + p * lx
        S, term, n = 0.0, 1.0, 0
        while n == 0 or abs(term) > _EPS * abs(S):
            n += 1
            term *= (n - q) * x / n
            S += term / (p + n)
        return math.log(-math.expm1(u) - math.exp(u) * p * S)
    a, b, z, w, lz, lw = (q, p, y, x, ly, lx) if swap else (p, q, x, y, lx, ly)
    if min(a, b) < _STIRLING_MIN:
        log_lead = a * lz + b * lw - math.log(a) - _log_beta(a, b)
    else:
        # z/z0 = 1 - lam/a, w/w0 = 1 + lam/b with w0 = 1 - z0, and lam > -1
        # below the fraction's point; log(z/z0) comes from log z where z << z0
        lam = a * w - b * z
        log_lead = (a * (math.log1p(-lam / a) if lam < 0.5 * a
                         else lz + math.log1p(b / a))
                    + b * math.log1p(lam / b)
                    + 0.5 * (math.log(b / (a + b)) - math.log(2.0 * math.pi * a))
                    + _stirling_step(a, b) - _stirling(a))
    # g = 1 + d_1/(1 + ...) as the product of its ratios c d, the terms in
    # pairs d_(2m+1), d_(2m+2) written as ratios, which do not overflow; a
    # NaN stops it
    c, d, g = 1.0, 0.0, 1.0
    for m in range(_MAX_PAIRS):
        for term in (-(a + m) / (a + 2 * m) * ((a + b + m) / (a + 2 * m + 1)) * z,
                     (m + 1) / (a + 2 * m + 1) * ((b - m - 1) / (a + 2 * m + 2)) * z):
            d = 1.0 / ((1.0 + term * d) or _TINY)
            c = (1.0 + term / c) or _TINY
            g *= c * d
        if not abs(c * d - 1.0) > _EPS:
            break
    else:
        raise ArithmeticError(f"the continued fraction of I_z(a, b) at a = {a}, "
                              f"b = {b}, z = {z} takes over {_MAX_PAIRS} pairs")
    log_i = log_lead - math.log(g)
    return log_i if swap else math.log1p(-math.exp(log_i))


def normalize(A: float, B: float, a: float, R: float) -> RadialWaveFunction:
    """Wave function with unit L2 norm on [0, inf); requires A < 0 < A + B.

    With y = 1 - f the norm is an incomplete beta function (DLMF 8.17),
    int_0^inf exp(2 log_profile) dr = a exp(2AR) B(p, q) [1 - I_y0(p, q)],
    p = 2a(A + B) > 0, q = -2aA > 0, y0 = 1/(1 + exp(R/a)); taken in log
    space, so log N stays finite where N would overflow (wide wells):
    log B by _log_beta, log(1 - I) by _log_beta_complement.
    """
    if not A < 0.0 < A + B:
        raise NotNormalizable(f"A = {A:.10g}, A + B = {A + B:.10g}: no decaying "
                              "profile with an interior peak; not normalizable")
    p, q = float(2.0 * a * (A + B)), float(-2.0 * a * A)
    log_integral = (math.log(a) + 2.0 * A * R + _log_beta(p, q)
                    + _log_beta_complement(p, q, float(R / a)))
    # past r_max the tail exp(2 A r) holds less than ~1e-13 of the norm
    r_max = max(peak_radius(A, B, a, R), R + 5.0 * a) + 30.0 / abs(A)
    return RadialWaveFunction(A=A, B=B, a=a, R=R, log_norm=float(-0.5 * log_integral),
                              r_max=r_max)


def second_derivative(wf: RadialWaveFunction, r):
    """Analytic F''(r) from the closed form.

    (log F)' = A + B f, f' = -f(1 - f)/a, so F'' = ((A + B f)^2 + B f') F.
    """
    f = shape_factor(r, wf.R, wf.a)
    fp = -f * (1.0 - f) / wf.a
    g = wf.A + wf.B * f
    return (g * g + wf.B * fp) * evaluate(wf, r)


def ode_residual(wf: RadialWaveFunction, E: float, p: PhysicalParams,
                 state: QuantumState, r) -> float:
    """Pointwise residual F'' - U(r; E) F of the transformed radial equation.

    Zero for the solved ground-state (A, B, E) configuration.
    """
    u = radial_coefficients(p, state).u(shape_factor(r, p.R, p.a), E)
    return second_derivative(wf, r) - u * evaluate(wf, r)
