"""Typed failure modes shared across the solver modules, and a float64 range
check for squares."""

import math


def checked_square(x, name: str, overflows: str, *, divides: bool = True,
                   **inputs):
    """x**2 of a scalar x, or an OverflowError naming the square and its
    inputs where it overflows (overflows says what: "the radial coefficients
    overflow") or, for a square that divides (divides=True), where a nonzero
    x squares to 0; not float pow's errno tuple or a later division by
    zero.  A square that only multiplies may underflow to 0."""
    try:
        square = x**2
    except OverflowError:
        square = math.inf
    if math.isfinite(square) and (square or not (x and divides)):
        return square
    at = ", ".join(f"{key} = {value}" for key, value in inputs.items())
    raise OverflowError(f"{overflows} the float64 range: {name} at {at}"
                        if square else f"{name} underflows to 0 at {at}")


class WsdiracError(Exception):
    """Base class for all solver-specific failures."""


class DegenerateSuperpotential(WsdiracError):
    """The superpotential slope B vanishes or is not real; the factorization collapses."""


class LadderSingular(WsdiracError):
    """The shifted slope B_n = B - n/a vanishes at a level n >= 1, where A_n is undefined."""


class NoRealRoot(WsdiracError):
    """The energy quadratic has no real root (complex-eigenvalue regime)."""


class NotNormalizable(WsdiracError):
    """The analytic radial function fails A < 0 < A + B and cannot be normalized."""


class NotBoundRegime(WsdiracError):
    """The asymptotic coefficient of the radial equation is non-positive at this trial energy."""


class IntegrationBlowup(WsdiracError):
    """The shooting integration left the float range: the kernel's tree with
    every level renormalized, or a sweep's amplitudes despite their rescaling."""


class NoEigenvalueInBracket(WsdiracError):
    """The shooting scan found no eigenvalue inside the requested energy bracket."""


class RefinementNotConverged(WsdiracError):
    """Brent's refinement of a bracketed shooting eigenvalue ran out of iterations."""
