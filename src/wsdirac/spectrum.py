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
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSuperpotential, LadderSingular, NoRealRoot, WsdiracError
from .params import PhysicalParams, QuantumState, derive_coefficients, kappa
from .pekeris import pekeris_coefficients
from .susyqm import (_SINGULAR_RTOL, ladder, shifted_A, slope_parameter,
                     solve_susy_parameters)


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
    ladder_valid: bool


@dataclass(frozen=True)
class _EnergyQuadratic:
    """Coefficients of the residual E^2 - M^2 - Q - g0 + (p E + q)^2."""

    p: float
    q: float
    M: float
    const: float  # Q + gamma c0 / R^2
    B: float
    B_n: float


def _assemble(p: PhysicalParams, state: QuantumState) -> _EnergyQuadratic:
    dc = derive_coefficients(p, state)
    pk = pekeris_coefficients(p.R, p.a)
    B = slope_parameter(dc, pk, p)
    if abs(B) <= _SINGULAR_RTOL / (2.0 * p.a):
        raise DegenerateSuperpotential(
            "B = 0: energy equation undefined for this configuration"
        )
    b_n = ladder(B, state.n, p.a)
    if abs(b_n) <= _SINGULAR_RTOL * max(abs(B), 1.0 / p.a):
        raise LadderSingular(f"B_n = 0 at n = {state.n}")
    # frak_u(E) = kappa_const - V0 (E + M) + v + gamma (c1 + c2)/R^2
    u0 = dc.kappa_const - dc.kappa_slope * p.M + dc.v \
        + dc.gamma * (pk.c1 + pk.c2) / p.R**2
    slope = -dc.kappa_slope
    return _EnergyQuadratic(
        p=slope / (2.0 * b_n),
        q=u0 / (2.0 * b_n) - b_n / 2.0,
        M=p.M,
        const=dc.ml_quartic + dc.gamma * pk.c0 / p.R**2,
        B=B,
        B_n=b_n,
    )


def energy_equation_residual(E: float, p: PhysicalParams, state: QuantumState) -> float:
    """Residual of the total-energy condition at trial energy E (fm^-2).

    Zero iff E solves the condition.  Assembled from the coefficient modules
    directly (kappa, frak_u, shifted A), not from the reduced quadratic.
    """
    dc = derive_coefficients(p, state)
    pk = pekeris_coefficients(p.R, p.a)
    sp = solve_susy_parameters(dc, pk, p, E)
    b_n = ladder(sp.B, state.n, p.a)
    if abs(b_n) <= _SINGULAR_RTOL * max(abs(sp.B), 1.0 / p.a):
        raise LadderSingular(f"B_n = 0 at n = {state.n}")
    g0 = dc.gamma * pk.c0 / p.R**2
    return (E * E - p.M * p.M) - (
        dc.ml_quartic + g0 - shifted_A(sp.frak_u, b_n) ** 2
    )


def _solve_quadratic(eq: _EnergyQuadratic) -> tuple[float, float] | None:
    """Real roots of the residual quadratic, or None; numerically stable form."""
    a2 = 1.0 + eq.p * eq.p
    a1 = 2.0 * eq.p * eq.q
    a0 = eq.q * eq.q - eq.M * eq.M - eq.const
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc < 0.0:
        return None
    s = math.sqrt(disc)
    if a1 >= 0.0:
        t = -(a1 + s) / 2.0
    else:
        t = -(a1 - s) / 2.0
    if t == 0.0:
        r1 = r2 = 0.0
    else:
        r1, r2 = t / a2, a0 / t
    return (max(r1, r2), min(r1, r2))


def _result_from_roots(eq: _EnergyQuadratic, roots) -> SpectrumResult:
    if roots is None:
        return SpectrumResult(
            e_upper=None, e_lower=None, e_binding=None, branch=None,
            roots_real=False, normalizable=False, ladder_valid=True,
        )
    upper, lower = float(roots[0]), float(roots[1])
    a_n = eq.p * upper + eq.q
    return SpectrumResult(
        e_upper=upper,
        e_lower=lower,
        e_binding=upper - eq.M,
        branch="upper",
        roots_real=True,
        normalizable=bool(a_n < 0.0 < a_n + eq.B_n),
        ladder_valid=True,
    )


def solve_energy(p: PhysicalParams, state: QuantumState) -> SpectrumResult:
    """Solve the quadratic energy condition in closed form; select the upper root.

    A missing real root is reported in the result (roots_real = False), not
    raised, so sweeps can record the complex-eigenvalue boundary as data.
    """
    eq = _assemble(p, state)
    return _result_from_roots(eq, _solve_quadratic(eq))


def ground_state_energy(p: PhysicalParams, state: QuantumState) -> SpectrumResult:
    """Solve the n = 0 condition (E - M)(E + M) = Q + gamma c0/R^2 - A(E)^2.

    Independent code path from solve_energy: the polynomial is assembled in
    monomial form and handed to numpy's companion-matrix root finder.
    """
    if state.n != 0:
        raise ValueError(f"ground_state_energy requires n = 0, got n = {state.n}")
    eq = _assemble(p, state)  # B_n = B at n = 0
    # (E - M)(E + M) - const + (p E + q)^2 as monomial coefficients
    poly = [
        1.0 + eq.p * eq.p,
        2.0 * eq.p * eq.q,
        -eq.M * eq.M - eq.const + eq.q * eq.q,
    ]
    roots = np.roots(poly)
    real = sorted(float(r.real) for r in roots if abs(r.imag) <= 1e-9 * max(1.0, abs(r)))
    if not real:
        return _result_from_roots(eq, None)
    return _result_from_roots(eq, (real[-1], real[0]))


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
    energy_equation_residual.  Returns ascending roots (possibly empty).
    """
    if e_lo is None:
        e_lo = -p.M - 50.0
    if e_hi is None:
        e_hi = p.M + 50.0
    residual = lambda E: energy_equation_residual(float(E), p, state)
    grid = np.linspace(e_lo, e_hi, grid_points)
    vals = [residual(E) for E in grid]
    brackets = [
        (float(grid[i]), float(grid[i + 1]))
        for i in range(len(grid) - 1)
        if vals[i] * vals[i + 1] < 0.0
    ]
    if not brackets:
        # a root pair closer than the grid spacing straddles the minimum
        from scipy.optimize import minimize_scalar

        i_min = int(np.argmin(vals))
        lo = float(grid[max(i_min - 1, 0)])
        hi = float(grid[min(i_min + 1, len(grid) - 1)])
        opt = minimize_scalar(residual, bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12})
        if opt.fun < 0.0:
            vertex = float(opt.x)
            if residual(lo) > 0.0:
                brackets.append((lo, vertex))
            if residual(hi) > 0.0:
                brackets.append((vertex, hi))
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
    in one cell never aborts the sweep.
    """
    for name, grid in (("alpha_prime", alpha_primes), ("D", dims),
                       ("ell", ells), ("n", ns)):
        if not grid:
            raise ValueError(f"sweep grid '{name}' must be non-empty")
    cells = []
    for alpha, D, ell, n in itertools.product(alpha_primes, dims, ells, ns):
        phys = PhysicalParams(M=p.M, a=p.a, R=p.R, V0=p.V0, E0=p.E0,
                              alpha_prime=alpha)
        try:
            result = solve_energy(phys, QuantumState(n=n, ell=ell, D=D))
            error = None if result.roots_real else NoRealRoot.__name__
        except WsdiracError as exc:
            result, error = None, type(exc).__name__
        cells.append(SweepCell(alpha_prime=alpha, D=D, ell=ell, n=n,
                               result=result, error=error))
    return cells
