"""Typed failure modes shared across the solver modules."""


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
    """The shooting integration overflowed despite in-flight renormalization."""


class NoEigenvalueInBracket(WsdiracError):
    """The shooting scan found no eigenvalue inside the requested energy bracket."""


class RefinementNotConverged(WsdiracError):
    """Brent's refinement of a bracketed shooting eigenvalue ran out of iterations."""
