"""Physical inputs and the coefficients of the transformed radial equation.

Natural units (hbar = c = 1): energies and masses in fm^-1, lengths in fm,
the deformation parameter alpha_prime in fm^2.
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import checked_square
from .pekeris import PekerisCoefficients, pekeris_coefficients


class SurfaceRegimeWarning(UserWarning):
    """The Woods-Saxon form assumes a thin surface (a << R)."""


@dataclass(frozen=True)
class PhysicalParams:
    """Potential, mass and deformation constants.

    M : fermion mass (fm^-1)
    a : surface thickness (fm)
    R : potential width (fm)
    V0 : potential depth (fm^-1); its sign is free
    E0 : zeroth-order energy entering the deformation terms (fm^-1)
    alpha_prime : deformation parameter (fm^2), 0 <= alpha_prime <= 1
    """

    M: float
    a: float
    R: float
    V0: float
    E0: float
    alpha_prime: float

    def __post_init__(self):
        for name in ("M", "a", "R", "V0", "E0", "alpha_prime"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.a <= 0:
            raise ValueError(f"surface thickness a must be positive, got {self.a}")
        if self.R <= 0:
            raise ValueError(f"potential width R must be positive, got {self.R}")
        if not 0.0 <= self.alpha_prime <= 1.0:
            raise ValueError(
                f"alpha_prime must lie in [0, 1], got {self.alpha_prime}"
            )
        if self.a / self.R > 0.2:
            warnings.warn(
                f"a/R = {self.a / self.R:.3g} > 0.2: outside the thin-surface "
                "regime the potential form assumes",
                SurfaceRegimeWarning,
                stacklevel=3,  # past the generated __init__, to the caller
            )


def require_integer(name: str, value, least: int) -> int:
    """value as an int; a ValueError naming it unless an Integral >= least."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


@dataclass(frozen=True)
class QuantumState:
    """Discrete labels: principal n, azimuthal ell, spatial dimension D."""

    n: int
    ell: int
    D: int
    LEAST = {"n": 0, "ell": 0, "D": 1}  # each label's least value (not a field)

    def __post_init__(self):  # stored as ints: a numpy uint8 label wraps in gamma
        for name, least in self.LEAST.items():
            value = require_integer(name, getattr(self, name), least)
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class DerivedCoefficients:
    """Energy-independent coefficients of the transformed radial equation.

    gamma : centrifugal constant (dimensionless)
    v : quadratic Woods-Saxon coefficient 2 alpha' V0^2 (E0 + M)^2  (fm^-2)
    ml_quartic : constant 2 alpha' ((E0)^2 - M^2)^2  (fm^-2)
    kappa_const : E-independent part of kappa(E) = kappa_const - V0 (E + M),
        V0 * 4 alpha' ((E0)^2 - M^2)(E0 + M)  (fm^-2)
    """

    gamma: float
    v: float
    ml_quartic: float
    kappa_const: float


def gamma(state: QuantumState) -> float:
    """Centrifugal constant [4 l (l + D - 2) + (D - 1)(D - 3)] / 4."""
    ell, D = state.ell, state.D
    return (4 * ell * (ell + D - 2) + (D - 1) * (D - 3)) / 4


def derive_coefficients(p: PhysicalParams, state: QuantumState) -> DerivedCoefficients:
    """The energy-independent coefficients; alpha_prime, ell and D may be arrays."""
    ml = p.E0 * p.E0 - p.M * p.M
    square = checked_square(p.E0 + p.M, "(E0 + M)^2",
                            "the deformation coefficient v overflows",
                            E0=p.E0, M=p.M)
    return DerivedCoefficients(
        gamma=gamma(state),
        v=2.0 * p.alpha_prime * p.V0 * p.V0 * square,
        ml_quartic=2.0 * p.alpha_prime * ml * ml,
        kappa_const=p.V0 * 4.0 * p.alpha_prime * ml * (p.E0 + p.M),
    )


class RadialCoefficients:
    """U(r; E) = c0(E) + c1(E) f + c2 f^2 of F'' = U F, f the Woods-Saxon shape.

    Built by the one fold of the Pekeris surrogate into the deformation
    terms (fm^-2); the fields broadcast over arrays of alpha_prime, ell and D.

    c0_const : Q + gamma c0P/R^2, so that c0(E) = c0_const - (E^2 - M^2)
    c2 : v + gamma c2P/R^2
    frak_u0 : frak_u(0) of the SUSY constant frak_u(E) = c1(E) + c2 =
        frak_u0 - V0 E, c1(E) = kappa(E) + gamma c1P/R^2; stored in place
        of c1, as this sum gives the closed-form energies their bits
    p : the folded configuration (M, V0, and R and a of the shape f)

    Raises OverflowError when R^2 or a folded coefficient leaves the float64
    range.
    """

    def __init__(self, coeffs: DerivedCoefficients, pk: PekerisCoefficients,
                 p: PhysicalParams):
        R2 = checked_square(p.R, "R^2", "the radial coefficients overflow",
                            R=p.R)
        self.c0_const = coeffs.ml_quartic + coeffs.gamma * pk.c0 / R2
        self.c2 = coeffs.v + coeffs.gamma * pk.c2 / R2
        self.frak_u0 = (coeffs.kappa_const - p.V0 * p.M + coeffs.v
                        + coeffs.gamma * (pk.c1 + pk.c2) / R2)
        # a sum is finite iff its terms are, or else leaves the range itself
        if not np.isfinite(self.c0_const + self.c2 + self.frak_u0).all():
            raise OverflowError("radial coefficients overflow the float64 range")
        self.p = p

    def c0(self, E):
        """Constant term; U(r; E) tends to it at large r (fm^-2)."""
        return self.c0_const - (E * E - self.p.M * self.p.M)

    def frak_u(self, E):
        """SUSY constant c1(E) + c2 (fm^-2)."""
        return self.frak_u0 - self.p.V0 * E

    def u(self, f, E):
        """U at shape-factor values f (fm^-2)."""
        return self.c0(E) + (self.frak_u(E) - self.c2) * f + self.c2 * f * f


def radial_coefficients(p: PhysicalParams, state: QuantumState) -> RadialCoefficients:
    """The folded U(r; E) of a configuration; alpha_prime, ell and D may be arrays."""
    return RadialCoefficients(derive_coefficients(p, state),
                              pekeris_coefficients(p.R, p.a), p)
