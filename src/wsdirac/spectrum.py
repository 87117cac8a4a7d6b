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
from collections import namedtuple
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from .errors import DegenerateSuperpotential, LadderSingular, NoRealRoot, WsdiracError
from .params import PhysicalParams, QuantumState, radial_coefficients
from .susyqm import _SINGULAR_RTOL, ladder, shifted_A, slope_parameter

# per-cell codes of the typed errors, in the order the checks apply
_DEGENERATE, _SINGULAR = 1, 2


@dataclass(frozen=True)
class SpectrumResult:
    """Both energy roots, the selected branch and validity diagnostics.

    e_upper / e_lower are None when the quadratic has no real root.
    e_binding = e_selected - M for the selected (upper) branch.
    normalizable is the bound-state condition at the selected root,
    A_n < 0 < A_n + B_n with A_n the shifted-A value: the profile
    exp(A_n r) (1 + exp(-(r - R)/a))^(-a B_n) decays at infinity (A_n < 0)
    and rises from the origin to an interior peak (A_n + B_n > 0).  A root
    with A_n + B_n <= 0 falls monotonically from r = 0 and is not a bound
    state of the radial equation.
    """

    e_upper: float | None
    e_lower: float | None
    e_binding: float | None
    branch: str | None
    roots_real: bool
    normalizable: bool


_NO_ROOT_RESULT = SpectrumResult(e_upper=None, e_lower=None, e_binding=None,
                                 branch=None, roots_real=False,
                                 normalizable=False)


# coefficients of the residual E^2 - M^2 - const + (p E + q)^2 per cell, with
# const = Q + gamma c0 / R^2.  code is _DEGENERATE where B = 0 (or not real)
# and _SINGULAR where B_n = 0, else 0; B_n, p and q are NaN at those cells.
_EnergyQuadratic = namedtuple("_EnergyQuadratic", "p q M const B_n code")


def _assemble(p, state) -> _EnergyQuadratic:
    """The energy quadratic of a PhysicalParams and QuantumState, or of every
    cell of a sweep passed as both (arrays of alpha_prime, D, ell and n)."""
    rc = radial_coefficients(p, state)
    B = slope_parameter(rc.c2, p.a)
    b_n = ladder(B, state.n, p.a)
    code = np.where(
        np.abs(B) <= _SINGULAR_RTOL / (2.0 * p.a), _DEGENERATE,
        np.where(np.abs(b_n) <= _SINGULAR_RTOL * np.maximum(np.abs(B), 1.0 / p.a),
                 _SINGULAR, 0))
    b_n = np.where(code == 0, b_n, np.nan)
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
    quadratic.  E may be an array; an array's residuals can differ from
    scalar ones in the last bit (numpy squares by a multiply, Python by pow).
    """
    rc = radial_coefficients(p, state)
    B = slope_parameter(rc.c2, p.a)
    if abs(B) <= _SINGULAR_RTOL / (2.0 * p.a):
        _raise_typed(_DEGENERATE, state)
    b_n = ladder(B, state.n, p.a)
    if abs(b_n) <= _SINGULAR_RTOL * max(abs(B), 1.0 / p.a):
        _raise_typed(_SINGULAR, state)
    return shifted_A(rc.frak_u(E), b_n) ** 2 - rc.c0(E)


def _solve_quadratic(eq: _EnergyQuadratic):
    """(upper, lower, no_root) per cell from the numerically stable form.

    no_root marks a negative discriminant; the roots are NaN there.
    """
    a2 = 1.0 + eq.p * eq.p
    a1 = 2.0 * eq.p * eq.q
    a0 = eq.q * eq.q - eq.M * eq.M - eq.const
    disc = a1 * a1 - 4.0 * a2 * a0
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sqrt(disc)
        # a sign test, not copysign: a1 = -0.0 takes the first branch
        t = np.where(a1 >= 0.0, -(a1 + s) / 2.0, -(a1 - s) / 2.0)
        r1 = np.where(t == 0.0, 0.0, t / a2)
        r2 = np.where(t == 0.0, 0.0, a0 / t)
    # the first root unless the second is strictly beyond it, as max and min
    return np.where(r2 > r1, r2, r1), np.where(r2 < r1, r2, r1), disc < 0.0


def _records(eq: _EnergyQuadratic, upper, lower, no_root) -> list:
    """The SpectrumResult of every cell, in C order: None where B = 0 or
    B_n = 0, the no-root record where the discriminant is negative."""
    a_n = eq.p * upper + eq.q
    normalizable = (a_n < 0.0) & (0.0 < a_n + eq.B_n)
    columns = (eq.code, no_root, upper, lower, upper - eq.M, normalizable)
    return [None if code else _NO_ROOT_RESULT if none else SpectrumResult(
                e_upper=e_up, e_lower=e_lo, e_binding=e_b, branch="upper",
                roots_real=True, normalizable=bound)
            for code, none, e_up, e_lo, e_b, bound  # every column has one shape
            in zip(*(np.ravel(x).tolist() for x in columns))]


def _raise_typed(code: int, state: QuantumState) -> None:
    if code == _DEGENERATE:
        raise DegenerateSuperpotential(
            "B = 0 or not real: energy equation undefined for this configuration"
        )
    if code == _SINGULAR:
        raise LadderSingular(f"B_n = 0 at n = {state.n}")


def solve_energy(p: PhysicalParams, state: QuantumState) -> SpectrumResult:
    """Solve the quadratic energy condition in closed form; select the upper root.

    A missing real root is reported in the result (roots_real = False), not
    raised, so sweeps can record the complex-eigenvalue boundary as data.
    """
    eq = _assemble(p, state)
    _raise_typed(int(eq.code), state)
    result, = _records(eq, *_solve_quadratic(eq))
    return result


def ground_state_energy(p: PhysicalParams, state: QuantumState) -> SpectrumResult:
    """Solve the n = 0 condition (E - M)(E + M) = Q + gamma c0/R^2 - A(E)^2.

    Independent code path from solve_energy: the polynomial is assembled in
    monomial form and handed to numpy's companion-matrix root finder.
    """
    if state.n != 0:
        raise ValueError(f"ground_state_energy requires n = 0, got n = {state.n}")
    eq = _assemble(p, state)  # B_n = B at n = 0
    _raise_typed(int(eq.code), state)
    # (E - M)(E + M) - const + (p E + q)^2 as monomial coefficients
    poly = [
        1.0 + eq.p * eq.p,
        2.0 * eq.p * eq.q,
        -eq.M * eq.M - eq.const + eq.q * eq.q,
    ]
    roots = np.roots(poly)
    real = sorted(float(r.real) for r in roots if abs(r.imag) <= 1e-9 * max(1.0, abs(r)))
    roots = (real[-1], real[0], False) if real else (math.nan, math.nan, True)
    result, = _records(eq, *roots)
    return result


def solve_energy_by_bracketing(
    p: PhysicalParams,
    state: QuantumState,
    e_lo: float | None = None,
    e_hi: float | None = None,
    grid_points: int = 400,
    tol: float = 1e-12,
    max_steps: int = 200,
) -> list[float]:
    """Roots of the residual found by grid scan plus bisection (oracle path).

    Independent of the closed-form route: only evaluates
    energy_equation_residual, over the whole scan grid in one call and at
    each bisection midpoint.  max_steps bounds each bisection and the number
    of re-scans.  Returns ascending roots (possibly empty).
    """
    if e_lo is None:
        e_lo = -p.M - 50.0
    if e_hi is None:
        e_hi = p.M + 50.0
    residual = lambda E: energy_equation_residual(float(E), p, state)
    for _ in range(max_steps):
        grid = np.linspace(e_lo, e_hi, grid_points)
        vals = energy_equation_residual(grid, p, state)
        brackets = [(float(grid[i]), float(grid[i + 1]))
                    for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0)]
        if brackets or e_hi - e_lo < tol * max(1.0, abs(e_lo)):
            break
        # a root pair closer than the grid spacing straddles the minimum:
        # re-scan the two cells around it
        i_min = int(np.argmin(vals))
        e_lo = float(grid[max(i_min - 1, 0)])
        e_hi = float(grid[min(i_min + 1, grid_points - 1)])
    roots = []
    for lo, hi in brackets:
        f_lo = residual(lo)
        for _ in range(max_steps):
            mid = 0.5 * (lo + hi)
            f_mid = residual(mid)
            if f_mid == 0.0 or hi - lo < tol * 1e-3 * max(1.0, abs(mid)):
                lo = hi = mid
                break
            if f_lo * f_mid < 0.0:
                hi = mid
            else:
                lo, f_lo = mid, f_mid
        roots.append(0.5 * (lo + hi))
    return sorted(roots)


def closed_form_vs_bracketing_gap(p: PhysicalParams, state: QuantumState) -> float:
    """Largest distance between closed-form roots and their bracketing matches.

    Returns 0.0 when neither route finds a root; infinity when only one does.
    """
    result = solve_energy(p, state)
    closed = ([result.e_lower, result.e_upper] if result.roots_real else [])
    scanned = solve_energy_by_bracketing(p, state)
    if not closed and not scanned:
        return 0.0
    if not closed or not scanned:
        return math.inf
    return max(min(abs(c - s) for s in scanned) for c in closed)


@dataclass(frozen=True)
class SweepCell:
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
    for alpha in alpha_primes:
        replace(p, alpha_prime=alpha)  # ValueError outside [0, 1]
    QuantumState(n=min(ns), ell=min(ells), D=min(dims))  # and on a negative label
    # an open mesh, grid k along axis k, of float64 labels (exact for integers,
    # lighter than int64); the cells stand in for both params and state
    alpha, D, ell, n = np.ix_(*(np.asarray(g, dtype=float) for g in grids))
    cells = SimpleNamespace(**{**vars(p), "alpha_prime": alpha}, D=D, ell=ell, n=n)
    eq = _assemble(cells, cells)
    out = []
    for (alpha, D, ell, n), result in zip(itertools.product(*grids),
                                          _records(eq, *_solve_quadratic(eq))):
        error = None if result is None or result.roots_real else NoRealRoot.__name__
        if result is None:  # B = 0 or B_n = 0, at a few cells per sweep
            try:
                solve_energy(replace(p, alpha_prime=alpha),
                             QuantumState(n=n, ell=ell, D=D))
            except WsdiracError as exc:
                error = type(exc).__name__
        out.append(SweepCell(alpha, D, ell, n, result=result, error=error))
    return out
