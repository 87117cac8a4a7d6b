"""Closed-form solution of the implicit total-energy equation and sweeps.

The energy condition is

    E^2 - M^2 = Q + gamma c0/R^2 - (frak_u(E)/(2 B_n) - B_n/2)^2

with Q the quartic deformation constant and frak_u(E) affine in E, so the
whole condition is exactly quadratic in E and is solved in closed form.
The algebraically larger real root ("upper") is the selected branch.
"""
from __future__ import annotations

import itertools
import math
import warnings
from collections import namedtuple
from dataclasses import replace
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import NoRealRoot, WsdiracError
from .params import (PhysicalParams, QuantumState, SurfaceRegimeWarning,
                     radial_coefficients, require_integer)
from .susyqm import checked_ladder, raise_ladder_error, shifted_A

# the bracketing route's scan: points, margin beyond +-M (fm^-1), relative
# width at which the search for a sign change stops, and its cap on re-scans
_SCAN_POINTS, _SCAN_MARGIN, _SCAN_TOL, _SCAN_MAX_STEPS = 400, 50.0, 1e-12, 200


class SpectrumResult(NamedTuple):
    """Both energy roots, the binding energy and the bound-state diagnostic.

    e_upper / e_lower are None when the quadratic has no real root.
    e_binding = e_upper - M for the selected (upper) branch.
    normalizable is the bound-state condition at the selected root,
    A_n < 0 < A_n + B_n with A_n the shifted-A value: the profile
    exp(A_n r) (1 + exp(-(r - R)/a))^(-a B_n) decays at infinity (A_n < 0)
    and rises from the origin to an interior peak (A_n + B_n > 0).  A root
    with A_n + B_n <= 0 falls monotonically from r = 0 and is not a bound
    state of the radial equation.
    roots_real and branch follow from e_upper, so they are read-only
    properties, not fields.
    """

    e_upper: float | None
    e_lower: float | None
    e_binding: float | None
    normalizable: bool

    @property
    def roots_real(self) -> bool:
        return self.e_upper is not None

    @property
    def branch(self) -> str | None:
        return None if self.e_upper is None else "upper"


_NO_ROOT_RESULT = SpectrumResult(None, None, None, False)


# coefficients of the residual E^2 - M^2 - const + (p E + q)^2 per cell, with
# const = Q + gamma c0 / R^2.  code is checked_ladder's typed-error code,
# 0 where neither applies; B_n, p and q are NaN where it is set.
_EnergyQuadratic = namedtuple("_EnergyQuadratic", "p q M const B_n code")


def _assemble(p, state) -> _EnergyQuadratic:
    """The energy quadratic of a PhysicalParams and QuantumState, or of every
    cell of a sweep passed as both (arrays of alpha_prime, D, ell and n)."""
    rc = radial_coefficients(p, state)
    _, b_n, code = checked_ladder(rc.c2, state.n, p.a)
    # A_n = frak_u(E)/(2 B_n) - B_n/2 = p E + q, frak_u(E) = frak_u0 - V0 E
    return _EnergyQuadratic(
        p=-p.V0 / (2.0 * b_n),
        q=rc.frak_u0 / (2.0 * b_n) - b_n / 2.0,
        M=p.M,
        const=rc.c0_const,
        B_n=b_n,
        code=code,
    )


def energy_equation_residual(E, p: PhysicalParams, state: QuantumState):
    """Residual of the total-energy condition at trial energy E (fm^-2).

    Zero iff E solves the condition A_n(E)^2 = c0(E).  Assembled from the
    radial coefficient and the shifted A directly, not from the reduced
    quadratic.  E may be an array.  Raises the typed error of
    susyqm.checked_ladder, as solve_energy does, and OverflowError where the
    residual leaves the float64 range.
    """
    rc = radial_coefficients(p, state)
    _, b_n, code = checked_ladder(rc.c2, state.n, p.a)
    raise_ladder_error(code, state.n)
    with np.errstate(over="ignore", invalid="ignore"):
        residual = shifted_A(rc.frak_u(E), b_n) ** 2 - rc.c0(E)
    if not np.isfinite(residual).all():
        raise OverflowError(f"the energy residual overflows the float64 range "
                            f"at V0 = {p.V0}, |E| up to {np.max(np.abs(E)):.6g}")
    return residual


def _solve_quadratic(eq: _EnergyQuadratic):
    """(upper, lower, no_root, overflow) per cell from the numerically stable form.

    no_root marks a negative discriminant, overflow one that is not finite
    (inf - inf where a huge depth V0 squares past the float64 range); the
    roots are NaN at both.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a2 = 1.0 + eq.p * eq.p
        a1 = 2.0 * eq.p * eq.q
        a0 = eq.q * eq.q - eq.M * eq.M - eq.const
        disc = a1 * a1 - 4.0 * a2 * a0
        s = np.sqrt(disc)
        # a sign test, not copysign: a1 = -0.0 takes the first branch
        t = np.where(a1 >= 0.0, -(a1 + s) / 2.0, -(a1 - s) / 2.0)
        r1 = np.where(t == 0.0, 0.0, t / a2)
        r2 = np.where(t == 0.0, 0.0, a0 / t)
    # the first root unless the second is strictly beyond it, as max and min
    return (np.where(r2 > r1, r2, r1), np.where(r2 < r1, r2, r1), disc < 0.0,
            ~np.isfinite(disc))


def _records(eq: _EnergyQuadratic, upper, lower, no_root, overflow=False) -> list:
    """The SpectrumResult of every cell, in C order: None where B = 0,
    B_n = 0 or the discriminant overflows, the no-root record where it is
    negative."""
    a_n = eq.p * upper + eq.q
    columns = (upper, lower, upper - eq.M, (a_n < 0.0) & (0.0 < a_n + eq.B_n))
    e_up, e_lo, e_b, bound = (np.ravel(x).tolist() for x in columns)  # of one shape
    out = list(map(SpectrumResult._make, zip(e_up, e_lo, e_b, bound)))
    for i in np.flatnonzero(no_root).tolist():  # a few cells per sweep
        out[i] = _NO_ROOT_RESULT
    for i in np.flatnonzero((eq.code != 0) | overflow).tolist():
        out[i] = None
    return out


def solve_energy(p: PhysicalParams, state: QuantumState) -> SpectrumResult:
    """Solve the quadratic energy condition in closed form; select the upper root.

    A missing real root is reported in the result (roots_real = False), not
    raised, so sweeps can record the complex-eigenvalue boundary as data.
    Raises OverflowError where the quadratic's discriminant leaves the
    float64 range.
    """
    eq = _assemble(p, state)
    raise_ladder_error(eq.code, state.n)
    upper, lower, no_root, overflow = _solve_quadratic(eq)
    if overflow:
        raise OverflowError(f"the energy quadratic's discriminant overflows the "
                            f"float64 range at V0 = {p.V0}, B_n = {float(eq.B_n):.6g}")
    return _records(eq, upper, lower, no_root)[0]


def ground_state_energy(p: PhysicalParams, state: QuantumState) -> SpectrumResult:
    """Solve the n = 0 condition (E - M)(E + M) = Q + gamma c0/R^2 - A(E)^2.

    Independent code path from solve_energy: the polynomial is assembled in
    monomial form and handed to numpy's companion-matrix root finder.
    Raises OverflowError where a coefficient leaves the float64 range.
    """
    if state.n != 0:
        raise ValueError(f"ground_state_energy requires n = 0, got n = {state.n}")
    eq = _assemble(p, state)  # B_n = B at n = 0
    raise_ladder_error(eq.code, state.n)
    # (E - M)(E + M) - const + (p E + q)^2 as monomial coefficients
    with np.errstate(over="ignore", invalid="ignore"):
        poly = [
            1.0 + eq.p * eq.p,
            2.0 * eq.p * eq.q,
            -eq.M * eq.M - eq.const + eq.q * eq.q,
        ]
    if not np.isfinite(poly).all():
        raise OverflowError(f"the ground-state polynomial overflows the float64 "
                            f"range at V0 = {p.V0}")
    roots = np.roots(poly)
    real = sorted(float(r.real) for r in roots if abs(r.imag) <= 1e-9 * max(1.0, abs(r)))
    roots = (real[-1], real[0], False) if real else (math.nan, math.nan, True)
    return _records(eq, *roots)[0]


def solve_energy_by_bracketing(p: PhysicalParams, state: QuantumState) -> list[float]:
    """Roots of the residual found by nested grid scans (oracle path).

    Independent of the closed-form route: only evaluates
    energy_equation_residual, each time over whole 400-point scan grids in
    one call.  The first scan covers (-M - 50, M + 50); each cell where the
    residual changes sign is scanned again, on the same grid over the cell,
    until the sign change lies in a cell narrower than 1e-15 max(1, |E|); one
    call takes every such cell's grid, so the residual keeps each cell's bits.
    _SCAN_MAX_STEPS bounds the re-scans for a first sign change.  Returns
    ascending roots (possibly empty); raises the residual's OverflowError.
    """
    e_lo, e_hi = -p.M - _SCAN_MARGIN, p.M + _SCAN_MARGIN
    for _ in range(_SCAN_MAX_STEPS):
        grid = np.linspace(e_lo, e_hi, _SCAN_POINTS)
        vals = energy_equation_residual(grid, p, state)
        # strict: an exact zero at a grid point opens no cell
        cells = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
        if cells.size or e_hi - e_lo < _SCAN_TOL * max(1.0, abs(e_lo)):
            break
        # a root pair closer than the grid spacing straddles the minimum:
        # re-scan the two cells around it
        i_min = int(np.argmin(vals))
        e_lo = float(grid[max(i_min - 1, 0)])
        e_hi = float(grid[min(i_min + 1, _SCAN_POINTS - 1)])
    lo, hi = grid[cells], grid[cells + 1]
    # each re-scan divides the widths by 399, down to adjacent floats; the
    # unfinished cells' sub-grids go to the residual laid end to end
    while (live := hi - lo >= _SCAN_TOL * 1e-3 * np.maximum(1.0, abs(lo))).any():
        sub = np.linspace(lo[live], hi[live], _SCAN_POINTS, axis=1)
        vals = energy_equation_residual(sub.ravel(), p, state).reshape(sub.shape)
        # each cell's first sub-cell holding the sign change, which the ends keep
        k = np.argmax(vals[:, :-1] * vals[:, 1:] <= 0.0, axis=1)
        rows = np.arange(len(k))
        lo[live], hi[live] = sub[rows, k], sub[rows, k + 1]
    return (0.5 * (lo + hi)).tolist()


class SweepCell(NamedTuple):
    """One grid cell of a parameter sweep: inputs plus outcome."""

    alpha_prime: float
    D: int
    ell: int
    n: int
    result: SpectrumResult | None
    error: str | None


def sweep(
    p: PhysicalParams,
    alpha_primes: list[float],
    dims: list[int],
    ells: list[int],
    ns: list[int],
) -> list[SweepCell]:
    """Evaluate the Cartesian product of the grids; failures become cell records.

    Ordering is row-major in (alpha_prime, D, ell, n).  A typed solver error
    in one cell never aborts the sweep.  The whole grid is solved in one
    broadcast pass, and each cell equals solve_energy on it to the bit; a
    cell's typed error is the one solve_energy raises on it.
    """
    grids = (alpha_primes, dims, ells, ns)
    for name, grid in zip(("alpha_prime", "D", "ell", "n"), grids):
        if not grid:
            raise ValueError(f"sweep grid '{name}' must be non-empty")
        for label in grid if name in QuantumState.LEAST else ():
            require_integer(name, label, QuantumState.LEAST[name])
    with warnings.catch_warnings():  # building p gave any SurfaceRegimeWarning
        warnings.simplefilter("ignore", SurfaceRegimeWarning)
        # p at each alpha_prime: ValueError outside [0, 1]
        at_alpha = {a: replace(p, alpha_prime=a) for a in alpha_primes}
    # an open mesh, grid k along axis k, of float64 labels (exact for integers,
    # lighter than int64); the cells stand in for both params and state
    alpha, D, ell, n = np.ix_(*(np.asarray(g, dtype=float) for g in grids))
    cells = SimpleNamespace(**{**vars(p), "alpha_prime": alpha}, D=D, ell=ell, n=n)
    eq = _assemble(cells, cells)
    upper, lower, no_root, overflow = _solve_quadratic(eq)
    errors = np.where(overflow, OverflowError.__name__, np.where(
        no_root, NoRealRoot.__name__, None)).ravel().tolist()
    # each (alpha_prime, D, ell, n) cell extended by its (result, error)
    out = list(map(SweepCell._make, map(tuple.__add__, itertools.product(*grids), zip(
        _records(eq, upper, lower, no_root, overflow), errors))))
    for i in np.flatnonzero(eq.code).tolist():  # B = 0 or B_n = 0, at a few cells
        alpha, D, ell, n, _, _ = out[i]
        try:
            solve_energy(at_alpha[alpha], QuantumState(n=n, ell=ell, D=D))
        except WsdiracError as exc:
            out[i] = out[i]._replace(error=type(exc).__name__)
    return out
