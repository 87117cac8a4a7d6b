"""The self-consistency checks behind every reported energy, each defined once.

Each check is a name, a metric of (p, state, result), result the closed-form
SpectrumResult under check, and a bound the metric must stay below; its
verdict is the status and detail of its `wsdirac verify` line.
`wsdirac verify` and the acceptance suite both read them, and hand in the
record they already hold: the checks call only the independent routes
(bracketing, companion matrix, shooting), never the closed form itself.
"""
from __future__ import annotations

import math
import sys
from collections import namedtuple

from . import oracle
from .errors import NoEigenvalueInBracket, ResolutionLimit
from .params import derive_coefficients, radial_coefficients
from .pekeris import pekeris_coefficients, taylor_match_report
from .spectrum import ground_state_energy, solve_energy_by_bracketing
from .susyqm import checked_ladder, closed_form_A, shifted_A, solve_susy_parameters


class Check(namedtuple("Check", "name label metric bound skip", defaults=("",))):
    """label names the metric's value in a verify line; a metric of None
    means the check does not apply, and skip says why."""

    def verdict(self, p, state, result) -> tuple[bool | None, str]:
        """The check's verify status, pass (true), fail or skip (None), and
        its detail: label=value, or the skip reason."""
        value = self.metric(p, state, result)
        if value is None:
            return None, self.skip
        return value < self.bound, f"{self.label}={value:.3e}"


class _ShootingCheck(Check):
    def verdict(self, p, state, result) -> tuple[bool, str]:
        """Passes by shooting_agrees, not by gap < bound; the detail names
        the root's normalizable flag and the gap."""
        gap = self.metric(p, state, result)
        return shooting_agrees(result.normalizable, state.n, gap), (
            f"normalizable={str(result.normalizable).lower()}, "
            + ("no eigenvalue in bracket" if gap == math.inf else f"gap={gap:.3e}"))


def _taylor_gap(p, state, result) -> float:
    # (1, -2, 3) are the Taylor coefficients of 1/(1 + x)^2; reads only R, a
    t = taylor_match_report(pekeris_coefficients(p.R, p.a))
    return max(abs(t[0] - 1.0), abs(t[1] + 2.0), abs(t[2] - 3.0))


def _matching_residual(p, state, result) -> float:
    # level n: the superpotential -(A_n + B_n f) against the partner potential
    # reached by n shape-invariant steps, whose f and f^2 coefficients those
    # steps shift by +s and -s, s = sum of 2 B_k / a over k < n (0 at n = 0)
    rc, E = radial_coefficients(p, state), result.e_upper
    _, b_n, _ = checked_ladder(rc.c2, state.n, p.a)
    a_n = shifted_A(rc.frak_u(E), b_n)
    s = state.n / p.a * (2.0 * b_n + (state.n + 1) / p.a)
    return max(abs(a_n**2 - rc.c0(E)),
               abs(2 * a_n * b_n - b_n / p.a - (rc.frak_u(E) - rc.c2 + s)),
               abs(b_n**2 + b_n / p.a - (rc.c2 - s)))


def _elimination_gap(p, state, result) -> float:
    dc, pk = derive_coefficients(p, state), pekeris_coefficients(p.R, p.a)
    E = result.e_upper
    return abs(closed_form_A(dc, pk, p, E) - solve_susy_parameters(dc, pk, p, E).A)


def _ground_state_gap(p, state, result) -> float | None:
    # the companion-matrix route solves the n = 0 condition only; where it
    # finds no real root (a near-tangent quadratic) the gap is inf
    if state.n:
        return None
    companion = ground_state_energy(p, state).e_upper
    return math.inf if companion is None else abs(companion - result.e_upper)


def _bracketing_gap(p, state, result) -> float:
    # the largest distance from the record's roots to their bracketing
    # matches: 0.0 when neither route has a root, inf when only one does
    closed = [result.e_lower, result.e_upper] if result.roots_real else []
    scanned = solve_energy_by_bracketing(p, state)
    if not closed and not scanned:
        return 0.0
    if not closed or not scanned:
        return math.inf
    return max(min(abs(c - s) for s in scanned) for c in closed)


def _shooting_gap(p, state, result) -> float:
    # the shooting states within 0.5 of the upper root E, in node order: the
    # lowest-node one at n = 0, the nearest one at n >= 1, inf if none
    E = result.e_upper
    bracket = (E - 0.5, E + 0.5)
    if not bracket[0] < bracket[1]:
        raise ResolutionLimit(
            f"the shooting bracket E +- 0.5 collapses to E = {E!r}: below "
            f"the float64 resolution there (ulp(E) = {math.ulp(E):.3g})")
    cfg = oracle.default_config(p, bracket)
    try:
        eigs = oracle.find_eigenvalues(cfg, p, state,
                                       count=sys.maxsize if state.n else 1)
    except NoEigenvalueInBracket:
        return math.inf
    return min(abs(e - E) for e in eigs)


def _continuum_margin(p, state, result) -> float | None:
    # E^2 - (M^2 + Q): the physical equation's U tends to Q - (E^2 - M^2) at
    # large r, so a bound state lies below its continuum edge sqrt(M^2 + Q);
    # the surrogate's c0 adds a barrier at infinity the equation does not have
    if not result.normalizable:
        return None
    E = result.e_upper
    return E * E - (p.M * p.M + derive_coefficients(p, state).ml_quartic)


def shooting_agrees(normalizable: bool, n: int, gap: float) -> bool:
    """The shooting check's rule: a bound root needs a shooting state within
    the bound; a root that is not bound needs none within it at n >= 1,
    where genuine neighbouring levels share its bracket, and none at all
    (gap = inf) at n = 0."""
    if normalizable:
        return gap < SHOOTING.bound
    return gap >= (SHOOTING.bound if n else math.inf)


TAYLOR_MATCH = Check("centrifugal-surrogate-taylor-match", "max_gap",
                     _taylor_gap, 1e-10)
MATCHING = Check("superpotential-matching-residuals", "max_residual",
                 _matching_residual, 1e-10)
ELIMINATION = Check("superpotential-elimination-agreement", "gap",
                    _elimination_gap, 1e-10)
GROUND_STATE = Check("ground-state-route-agreement", "gap",
                     _ground_state_gap, 1e-10, skip="n > 0")
BRACKETING = Check("closed-form-vs-bracketing", "gap", _bracketing_gap, 1e-10)
CONTINUUM = Check("below-continuum-edge", "margin", _continuum_margin, 0.0,
                  skip="not normalizable")
SHOOTING = _ShootingCheck("shooting-cross-check", "gap", _shooting_gap, 1e-3)

# the checks of a closed-form root, in verify's order
ROOT_CHECKS = (MATCHING, ELIMINATION, GROUND_STATE, BRACKETING, CONTINUUM)
