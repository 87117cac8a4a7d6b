"""Physical inputs and the coefficients of the transformed radial equation.

Natural units (hbar = c = 1): energies and masses in fm^-1, lengths in fm,
the deformation parameter alpha_prime in fm^2.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass


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
                stacklevel=2,
            )


@dataclass(frozen=True)
class QuantumState:
    """Discrete labels: principal n, azimuthal ell, spatial dimension D."""

    n: int
    ell: int
    D: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must be non-negative, got {self.n}")
        if self.ell < 0:
            raise ValueError(f"ell must be non-negative, got {self.ell}")
        if self.D < 1:
            raise ValueError(f"D must be a positive integer, got {self.D}")


@dataclass(frozen=True)
class DerivedCoefficients:
    """Energy-independent coefficients of the transformed radial equation.

    gamma : centrifugal constant (dimensionless)
    v : quadratic Woods-Saxon coefficient 2 alpha' V0^2 (E0 + M)^2  (fm^-2)
    ml_quartic : constant 2 alpha' ((E0)^2 - M^2)^2  (fm^-2)
    kappa_const : E-independent part of kappa,
        V0 * 4 alpha' ((E0)^2 - M^2)(E0 + M)  (fm^-2)
    kappa_slope : coefficient of -(E + M) inside kappa, i.e. V0  (fm^-1)
    """

    gamma: float
    v: float
    ml_quartic: float
    kappa_const: float
    kappa_slope: float


def gamma(state: QuantumState) -> float:
    """Centrifugal constant [4 l (l + D - 2) + (D - 1)(D - 3)] / 4."""
    ell, D = state.ell, state.D
    return (4 * ell * (ell + D - 2) + (D - 1) * (D - 3)) / 4


def derive_coefficients(p: PhysicalParams, state: QuantumState) -> DerivedCoefficients:
    """The energy-independent coefficients; alpha_prime, ell and D may be arrays."""
    ml = p.E0 * p.E0 - p.M * p.M
    return DerivedCoefficients(
        gamma=gamma(state),
        v=2.0 * p.alpha_prime * p.V0 * p.V0 * (p.E0 + p.M) ** 2,
        ml_quartic=2.0 * p.alpha_prime * ml * ml,
        kappa_const=p.V0 * 4.0 * p.alpha_prime * ml * (p.E0 + p.M),
        kappa_slope=p.V0,
    )


def kappa(coeffs: DerivedCoefficients, E: float, M: float) -> float:
    """Linear-in-energy coefficient of the first Woods-Saxon power (fm^-2)."""
    return coeffs.kappa_const - coeffs.kappa_slope * (E + M)
