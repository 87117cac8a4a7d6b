"""Superpotential constants and the shape-invariance ladder.

The effective radial equation F'' = U F after the centrifugal replacement,
U = c0(E) + c1(E) f + c2 f^2 with f the Woods-Saxon shape factor, is
factorized through the superpotential phi(r) = -(A + B f(r)): with
f' = -f(1 - f)/a, matching phi^2 - phi' to U gives A^2 = c0,
2AB - B/a = c1 and B^2 + B/a = c2.  Shape invariance maps B to the next
level's B - 1/a, so level n has B_n = B - n/a and A_n = frak_u/(2 B_n) - B_n/2,
frak_u = c1 + c2.  The prefactor hbar/sqrt(2 mu) is set to 1, so A and B
carry units fm^-1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSuperpotential, LadderSingular
from .params import DerivedCoefficients, PhysicalParams, RadialCoefficients
from .pekeris import PekerisCoefficients

# relative threshold below which B (or a shifted B_n) counts as vanishing
_SINGULAR_RTOL = 1e-12

# the typed-error codes of checked_ladder, in the order its rule applies them
_DEGENERATE, _SINGULAR = 1, 2


@dataclass(frozen=True)
class SusyParameters:
    """Solved superpotential constants for one configuration and trial energy.

    A, B : superpotential constants (fm^-1)
    """

    A: float
    B: float


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
    e.g. alpha_prime = 0 with ell = 0, D = 3), _SINGULAR where B_n = 0 at
    n >= 1, else 0; B_n is NaN where code is set.  raise_ladder_error raises it.
    """
    B = slope_parameter(c2, a)
    b_n = ladder(B, n, a)
    vanishes = np.abs(b_n) <= _SINGULAR_RTOL * np.maximum(np.abs(B), 1.0 / a)
    # B_0 is B: a vanishing B_n at n = 0 is a vanishing B
    code = np.where(
        (np.abs(B) <= _SINGULAR_RTOL / (2.0 * a)) | (vanishes & (n == 0)),
        _DEGENERATE, np.where(vanishes, _SINGULAR, 0))
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
    return SusyParameters(A=shifted_A(rc.frak_u(E), B), B=B)


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


def ladder(B: float, n: int, a: float) -> float:
    """Shifted slope parameter B_n = B - n/a."""
    return B - n / a


def shifted_A(frak_u: float, B_n: float) -> float:
    """A-analogue at a shifted ladder step: frak_u/(2 B_n) - B_n/2."""
    return frak_u / (2.0 * B_n) - B_n / 2.0
