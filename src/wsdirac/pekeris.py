"""Second-order-matched replacement of the centrifugal term by Woods-Saxon shapes.

The true centrifugal term gamma/r^2 is replaced around r = R by
(gamma/R^2) (c0 + c1 f + c2 f^2) with f the Woods-Saxon shape factor; the
coefficients are fixed so that the Taylor expansions in x = (r - R)/R agree
through second order with 1/(1 + x)^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import checked_square

# exp overflow boundary for double precision; beyond this the shape factor
# is clamped to its 0/1 limit
_EXP_CLAMP = 700.0


def shape_factor(r, R: float, a: float):
    """Woods-Saxon shape 1 / (1 + exp((r - R)/a)), overflow-safe."""
    x = np.clip((np.asarray(r, dtype=float) - R) / a, -_EXP_CLAMP, _EXP_CLAMP)
    out = 1.0 / (1.0 + np.exp(x))
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class PekerisCoefficients:
    """Matched surrogate coefficients; varpi = R/a."""

    varpi: float
    c0: float
    c1: float
    c2: float


def pekeris_coefficients(R: float, a: float) -> PekerisCoefficients:
    """Coefficients of the matched centrifugal surrogate for width R, thickness a."""
    if R <= 0 or a <= 0:
        raise ValueError(f"R and a must be positive, got R={R}, a={a}")
    w = R / a
    if not 0.0 < w < math.inf:  # the quotient itself left the float64 range
        raise OverflowError(f"R/a = {w} leaves the float64 range at R = {R}, "
                            f"a = {a}")
    w2 = checked_square(w, "(R/a)^2", "surrogate coefficients overflow",
                        R=R, a=a)
    c = (1.0 - 4.0 / w + 12.0 / w2, 8.0 / w - 48.0 / w2, 48.0 / w2)
    if not all(map(math.isfinite, c)):
        raise OverflowError(f"surrogate coefficients overflow at R/a = {w}")
    return PekerisCoefficients(w, *c)


def centrifugal_surrogate(
    coeffs: PekerisCoefficients, gamma: float, R: float, r, a: float
):
    """Surrogate centrifugal term (gamma/R^2)(c0 + c1 f + c2 f^2) at radius r (fm^-2)."""
    f = shape_factor(r, R, a)
    return (gamma / R**2) * (coeffs.c0 + coeffs.c1 * f + coeffs.c2 * f * f)


def taylor_match_report(coeffs: PekerisCoefficients) -> tuple[float, float, float]:
    """Taylor coefficients (x^0, x^1, x^2) of c0 + c1 f + c2 f^2 at x = (r-R)/R = 0.

    Uses the exact odd expansion of the shape factor,
    f = 1/2 - (varpi x)/4 + (varpi x)^3/48 - ..., so that
    f^2 = 1/4 - (varpi x)/4 + (varpi x)^2/16 + O(x^3).
    A perfectly matched surrogate yields (1, -2, 3), the expansion of 1/(1+x)^2.
    """
    w = coeffs.varpi
    t0 = coeffs.c0 + coeffs.c1 / 2.0 + coeffs.c2 / 4.0
    t1 = -(w / 4.0) * (coeffs.c1 + coeffs.c2)
    t2 = coeffs.c2 * w * w / 16.0
    return (t0, t1, t2)
