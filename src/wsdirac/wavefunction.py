"""Analytic ground-state radial function, normalization and residual checks.

The reduced radial function is

    F(r) = N exp(A r) (1 + exp(-(r - R)/a))^(-a B)

evaluated in log space throughout, N included; the r^-(D-1)/2 spinor
prefactor is not folded in.  F(0) is small but nonzero, an inherent feature
of the centrifugal replacement.
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


def normalize(A: float, B: float, a: float, R: float) -> RadialWaveFunction:
    """Wave function with unit L2 norm on [0, inf); requires A < 0 < A + B.

    With y = 1 - f the norm is an incomplete beta function (DLMF 8.17),
    int_0^inf exp(2 log_profile) dr = a exp(2AR) B(p, q) [1 - I_y0(p, q)],
    p = 2a(A + B) > 0, q = -2aA > 0, y0 = 1/(1 + exp(R/a)); taken in log
    space, so log N stays finite where N would overflow (wide wells).
    """
    if not A < 0.0 < A + B:
        raise NotNormalizable(f"A = {A:.10g}, A + B = {A + B:.10g}: no decaying "
                              "profile with an interior peak; not normalizable")
    # imported here so that `import wsdirac` loads no scipy module
    from scipy.special import betaincc, betaln, expit

    p, q = 2.0 * a * (A + B), -2.0 * a * A
    log_integral = (math.log(a) + 2.0 * A * R + betaln(p, q)
                    + math.log(betaincc(p, q, expit(-R / a))))
    # past r_max the tail exp(2 A r) holds less than ~1e-13 of the norm
    r_max = max(peak_radius(A, B, a, R), R + 5.0 * a) + 30.0 / abs(A)
    return RadialWaveFunction(A=A, B=B, a=a, R=R,
                              log_norm=float(-0.5 * log_integral), r_max=r_max)


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
