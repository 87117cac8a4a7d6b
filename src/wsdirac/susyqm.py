"""Superpotential construction, partner potentials and the shape-invariance ladder.

The effective radial equation after the centrifugal replacement is factorized
through the superpotential phi(r) = -(A + B f(r)), with f the Woods-Saxon
shape factor.  The prefactor hbar/sqrt(2 mu) is set to 1, so A and B carry
units fm^-1 and the partner potentials fm^-2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSuperpotential, LadderSingular
from .params import DerivedCoefficients, PhysicalParams, RadialCoefficients
from .pekeris import PekerisCoefficients, shape_factor

# relative threshold below which B (or a shifted B_n) counts as vanishing
_SINGULAR_RTOL = 1e-12

# the typed-error codes of checked_ladder, in the order its rule applies them
_DEGENERATE, _SINGULAR = 1, 2


@dataclass(frozen=True)
class SusyParameters:
    """Solved superpotential constants for one configuration and trial energy.

    A, B : superpotential constants (fm^-1)
    frak_u : the SUSY constant c1(E) + c2 at the trial energy (fm^-2)
    """

    A: float
    B: float
    frak_u: float


def slope_parameter(c2, a: float):
    """Energy-independent constant B = -1/(2a) + sqrt(c2 + 1/(4a^2)); c2 may be an array.

    0 where B is not real (ell = 0, D = 2 and R/a < 48^(1/4)): the ansatz
    collapses there as at B = 0.
    """
    radicand = c2 + 1.0 / (4.0 * a**2)
    return (-1.0 / (2.0 * a) + np.sqrt(np.abs(radicand))) * (radicand >= 0.0)


def checked_ladder(c2, n, a: float):
    """(B, B_n, code) of the ladder B_n = B - n/a; c2 and n may be arrays.

    code is _DEGENERATE where B = 0 or is not real (the ansatz collapses;
    e.g. alpha_prime = 0 with ell = 0, D = 3), _SINGULAR where B_n = 0,
    else 0; B_n is NaN where code is set.  raise_ladder_error raises it.
    """
    B = slope_parameter(c2, a)
    b_n = ladder(B, n, a)
    code = np.where(
        np.abs(B) <= _SINGULAR_RTOL / (2.0 * a), _DEGENERATE,
        np.where(np.abs(b_n) <= _SINGULAR_RTOL * np.maximum(np.abs(B), 1.0 / a),
                 _SINGULAR, 0))
    return B, np.where(code == 0, b_n, np.nan), code


def raise_ladder_error(code, n) -> None:
    """Raise the typed error of a checked_ladder code at level n, if any."""
    if code == _DEGENERATE:
        raise DegenerateSuperpotential(
            "B = 0 or not real: energy equation undefined for this configuration"
        )
    if code == _SINGULAR:
        raise LadderSingular(f"B_n = 0 at n = {n}")


def solve_susy_parameters(coeffs: DerivedCoefficients, pk: PekerisCoefficients,
                          p: PhysicalParams, E: float) -> SusyParameters:
    """Solve A^2 = c0, 2AB - B/a = c1, B^2 + B/a = c2 of U(r; E) for (A, B) at E.

    Raises the typed error of checked_ladder at n = 0.
    """
    rc = RadialCoefficients(coeffs, pk, p)
    B, _, code = checked_ladder(rc.c2, 0, p.a)
    raise_ladder_error(code, 0)
    frak_u = rc.frak_u(E)
    return SusyParameters(A=shifted_A(frak_u, B), B=B, frak_u=frak_u)


def closed_form_A(coeffs: DerivedCoefficients, pk: PekerisCoefficients,
                  p: PhysicalParams, E: float) -> float:
    """A from the elimination closed form, coded independently of solve_susy_parameters.

    A = (kappa + gamma c1/R^2) / (-1/a + 2 sqrt(v + gamma c2/R^2 + 1/(4a^2))) + 1/(2a)
    """
    radicand = coeffs.v + coeffs.gamma * pk.c2 / p.R**2 + 1.0 / (4.0 * p.a**2)
    if radicand < 0.0:
        raise DegenerateSuperpotential("B not real in the closed-form elimination")
    denom = -1.0 / p.a + 2.0 * np.sqrt(radicand)
    if abs(denom) <= _SINGULAR_RTOL / p.a:
        raise DegenerateSuperpotential("B = 0 in the closed-form elimination")
    k = coeffs.kappa_const - p.V0 * (E + p.M)
    return (k + coeffs.gamma * pk.c1 / p.R**2) / denom + 1.0 / (2.0 * p.a)


def superpotential(sp: SusyParameters, r, a: float, R: float):
    """phi(r) = -(A + B f(r))  (fm^-1)."""
    return -(sp.A + sp.B * shape_factor(r, R, a))


def partner_potentials(sp: SusyParameters, r, a: float, R: float):
    """Partner pair (V_minus, V_plus) at radius r (fm^-2).

    V_minus = phi^2 - phi', V_plus = phi^2 + phi', with phi' taken analytically:
    f' = -f(1 - f)/a.
    """
    A, B = sp.A, sp.B
    f = shape_factor(r, R, a)
    v_minus = A * A + (2.0 * A * B - B / a) * f + (B * B + B / a) * f * f
    v_plus = A * A + (2.0 * A * B + B / a) * f + (B * B - B / a) * f * f
    return v_minus, v_plus


def ladder(B: float, n: int, a: float) -> float:
    """Shifted slope parameter B_n = B - n/a."""
    return B - n / a


def shifted_A(frak_u: float, B_n: float) -> float:
    """A-analogue at a shifted ladder step: frak_u/(2 B_n) - B_n/2."""
    return frak_u / (2.0 * B_n) - B_n / 2.0


def remainder(sp: SusyParameters, i: int, a: float) -> float:
    """r-independent remainder of ladder step i >= 1 (fm^-2)."""
    if i < 1:
        raise ValueError(f"ladder step i must be >= 1, got {i}")
    b_i = ladder(sp.B, i, a)
    b_prev = ladder(sp.B, i - 1, a)
    scale = max(abs(sp.B), 1.0 / a)
    if abs(b_i) <= _SINGULAR_RTOL * scale or abs(b_prev) <= _SINGULAR_RTOL * scale:
        raise LadderSingular(f"B - i/a vanishes at ladder step i={i}")
    return -(shifted_A(sp.frak_u, b_i) ** 2 - shifted_A(sp.frak_u, b_prev) ** 2)
