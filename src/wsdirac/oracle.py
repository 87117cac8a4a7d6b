"""Direct numerical eigensolve of the transformed radial equation.

Independent cross-check of the closed-form spectrum: for each trial energy E
the energy-dependent coefficients are frozen, F'' = U(r; E) F is integrated
outward from r_min and inward from r_max with a fixed-step classical
Runge-Kutta scheme, and the Wronskian of the two sweeps' (F, F') vectors at
the match radius, each scaled to unit length, is driven to zero over E.

The equation is linear, so one RK4 step is a 2x2 transfer matrix whose four
entries are closed-form polynomials in h and the step's three stage values
of U; they are built as four flat arrays over the steps.  A sweep's end
state is the ordered product of those matrices, a pairwise tree with
per-pass renormalization by positive factors (the direction of the end
state, sign included, is unaffected).  The mismatch is therefore bounded,
has no poles, and changes sign only at eigenvalues, so each sign change on
the scan grid is refined with Brent's method.  The amplitudes along a sweep,
for node counting and eigenfunction recovery, are the prefix products of
the same matrices, taken by a Hillis-Steele scan with per-pass log scales.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationBlowup, NoEigenvalueInBracket, NotBoundRegime
from .params import PhysicalParams, QuantumState, RadialCoefficients, radial_coefficients
from .pekeris import shape_factor


@dataclass(frozen=True)
class ShootingConfig:
    """Domain truncation and search bracket for the shooting solve."""

    r_min: float
    r_max: float
    step_count: int
    match_radius: float
    energy_bracket: tuple[float, float]

    def __post_init__(self):
        if not 0.0 < self.r_min < self.match_radius < self.r_max:
            raise ValueError(
                f"need 0 < r_min < match_radius < r_max, got "
                f"({self.r_min}, {self.match_radius}, {self.r_max})"
            )
        if self.step_count < 10_000:
            raise ValueError(f"step_count must be >= 10000, got {self.step_count}")
        lo, hi = self.energy_bracket
        if not lo < hi:
            raise ValueError(f"invalid energy bracket ({lo}, {hi})")


def default_config(p: PhysicalParams, energy_bracket: tuple[float, float],
                   step_count: int = 20_000) -> ShootingConfig:
    """Standard truncation for the given potential: [R/100, R + 40 a], match at R."""
    return ShootingConfig(
        r_min=p.R / 100.0,
        r_max=p.R + 40.0 * p.a,
        step_count=step_count,
        match_radius=p.R,
        energy_bracket=energy_bracket,
    )


def _u(rc: RadialCoefficients, r, E: float):
    """U(r; E) at radii r, frozen at trial energy E."""
    return rc.u(shape_factor(r, rc.p.R, rc.p.a), E)


def _transfer_entries(rc: RadialCoefficients, E: float, r0: float, h: float,
                      steps: int) -> np.ndarray:
    """Closed-form RK4 transfer matrices for y = (F, F'), shape (4, steps).

    Column j holds the entries (t00, t01, t10, t11) of the step mapping
    y(r0 + j h) to y(r0 + (j+1) h); h may be negative.  With A = [[0, 1],
    [u, 0]] each RK4 stage is a polynomial in h and the stage values u1, u2,
    u3 of U at the step's start, midpoint and end, and so is their sum.
    """
    u = _u(rc, r0 + (h / 2.0) * np.arange(2 * steps + 1, dtype=float), E)
    u1, u2, u3 = u[0:-1:2], u[1::2], u[2::2]
    h2, h3 = h * h, h * h * h
    return np.stack([
        1.0 + h2 / 6.0 * (u1 + 2.0 * u2) + h2 * h2 / 24.0 * u1 * u2,
        h + h3 / 6.0 * u2,
        h / 6.0 * (u1 + 4.0 * u2 + u3) + h3 / 12.0 * u2 * (u1 + u3),
        1.0 + h2 / 6.0 * (2.0 * u2 + u3) + h2 * h2 / 24.0 * u2 * u3,
    ])


def _compose(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Entries of the 2x2 products b @ a, column by column."""
    return np.stack([b[0] * a[0] + b[1] * a[2], b[0] * a[1] + b[1] * a[3],
                     b[2] * a[0] + b[3] * a[2], b[2] * a[1] + b[3] * a[3]])


def _renormalize(M: np.ndarray):
    """Divide each column by its max-abs entry, a positive factor: (M, factors)."""
    scale = np.abs(M).max(axis=0)
    if not np.all(np.isfinite(scale)):
        raise IntegrationBlowup("transfer-matrix product overflowed")
    scale = np.maximum(scale, 1e-300)
    return M / scale, scale


def _chain_product(T: np.ndarray) -> np.ndarray:
    """Entries of the ordered product T[-1] @ ... @ T[0] by pairwise reduction.

    Each pass renormalizes by positive factors, so only the direction of the
    resulting map is meaningful.
    """
    M = T
    while M.shape[1] > 1:
        n = M.shape[1]
        even = n - (n % 2)
        paired = _compose(M[:, 1:even:2], M[:, 0:even:2])
        if n % 2:
            paired = np.concatenate([paired, M[:, -1:]], axis=1)
        M, _ = _renormalize(paired)
    return M[:, 0]


def _match_state(rc: RadialCoefficients, E: float, r0: float, h: float,
                 steps: int, slope0: float) -> np.ndarray:
    """(F, F') at the end of the sweep from (1, slope0), scaled to unit length.

    The chain product only rescales by positive factors, so the direction,
    sign included, is that of the true solution.
    """
    t = _chain_product(_transfer_entries(rc, E, r0, h, steps))
    y = np.array([t[0] + t[1] * slope0, t[2] + t[3] * slope0])
    return y / math.hypot(y[0], y[1])


def _sweeps(rc: RadialCoefficients, E: float, cfg: ShootingConfig):
    """The outward sweep from r_min and the inward one from r_max at E, each
    as (r0, h, steps, slope0), meeting at the grid point nearest the match
    radius.  Raises NotBoundRegime where c0(E) <= 0 (oscillatory tail)."""
    c0 = rc.c0(E)
    if c0 <= 0.0:
        raise NotBoundRegime(
            f"asymptotic coefficient <= 0 at E = {E}: oscillatory tail"
        )
    h = (cfg.r_max - cfg.r_min) / cfg.step_count
    i_match = int(round((cfg.match_radius - cfg.r_min) / h))
    i_match = min(max(i_match, 1), cfg.step_count - 1)
    slope_in = math.sqrt(max(float(_u(rc, cfg.r_min, E)), 0.0))
    return ((cfg.r_min, h, i_match, slope_in),
            (cfg.r_max, -h, cfg.step_count - i_match, -math.sqrt(c0)))


def _mismatch(rc: RadialCoefficients, E: float, cfg: ShootingConfig) -> float:
    out, inw = (_match_state(rc, E, *sweep) for sweep in _sweeps(rc, E, cfg))
    return float(out[0] * inw[1] - out[1] * inw[0])


def shoot_mismatch(E: float, cfg: ShootingConfig, p: PhysicalParams,
                   state: QuantumState) -> float:
    """Matching Wronskian at the match radius; zero iff E is an eigenvalue.

    The outward sweep starts on the locally growing solution at r_min; the
    inward sweep starts on the decaying asymptotic solution at r_max.  With
    u = (F, F')_out and w = (F, F')_in at the match radius, each scaled to
    unit length, the mismatch is u_0 w_1 - u_1 w_0: it lies in [-1, 1] and
    changes sign only where the two sweeps meet as one solution.
    Raises NotBoundRegime when the asymptotic coefficient is non-positive
    (oscillatory tail, no bound state possible at this E).
    """
    return _mismatch(radial_coefficients(p, state), E, cfg)


def _trajectory(rc: RadialCoefficients, E: float, r0: float, h: float,
                steps: int, slope0: float):
    """Amplitudes F of the sweep from (1, slope0) as (values, log_scales).

    F at r0 + j h is values[j] * exp(log_scales[j]).  The prefix products
    T[j] @ ... @ T[0] come from a Hillis-Steele scan, log2(steps) passes of
    products at doubling offsets, each column renormalized by a positive
    factor whose log is accumulated.
    """
    P = _transfer_entries(rc, E, r0, h, steps)
    logs = np.zeros(steps)
    d = 1
    while d < steps:
        P[:, d:], scale = _renormalize(_compose(P[:, d:], P[:, :-d]))
        logs[d:] = logs[d:] + logs[:-d] + np.log(scale)
        d *= 2
    values = np.concatenate([[1.0], P[0] + P[1] * slope0])
    return values, np.concatenate([[0.0], logs])


def _count_nodes(values: np.ndarray) -> int:
    return int(np.sum(values[1:] * values[:-1] < 0.0))


def find_eigenvalues(cfg: ShootingConfig, p: PhysicalParams,
                     state: QuantumState, count: int,
                     scan_points: int = 400, tol: float = 1e-9) -> list[float]:
    """Up to `count` shooting eigenvalues inside the energy bracket, ascending.

    Scans the bracket on a grid, brackets sign changes of the mismatch and
    refines each with Brent's method to `tol`.  The mismatch has no poles, so every
    sign change holds an eigenvalue; a grid cell that holds an even number
    of them shows none.  States are ordered by outward node count, then
    energy.
    """
    from scipy.optimize import brentq

    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rc = radial_coefficients(p, state)
    lo, hi = cfg.energy_bracket
    grid = np.linspace(lo, hi, scan_points)
    mm = np.full(scan_points, np.nan)  # NaN where the tail oscillates
    for i, E in enumerate(grid.tolist()):
        with contextlib.suppress(NotBoundRegime):
            mm[i] = _mismatch(rc, E, cfg)
    found = []
    for i in range(scan_points - 1):
        f_lo, f_hi = mm[i], mm[i + 1]
        if not (np.isfinite(f_lo) and np.isfinite(f_hi)) or f_lo * f_hi >= 0.0:
            continue
        # brentq starts by evaluating both ends, which the scan already holds
        ends = {float(grid[i]): f_lo, float(grid[i + 1]): f_hi}
        f = lambda E: ends[E] if E in ends else _mismatch(rc, E, cfg)
        e_star = float(brentq(f, grid[i], grid[i + 1], xtol=tol))
        values, _ = _trajectory(rc, e_star, *_sweeps(rc, e_star, cfg)[0])
        found.append((_count_nodes(values), e_star))
    if not found:
        raise NoEigenvalueInBracket(
            f"no shooting eigenvalue in ({lo}, {hi}) for this configuration"
        )
    found.sort()
    return [e for _, e in found[:count]]


def shoot_eigenfunction(E: float, cfg: ShootingConfig, p: PhysicalParams,
                        state: QuantumState):
    """Stitched, L2-normalized eigenfunction at energy E on the shooting grid.

    Returns (r, F) arrays; the inward branch is rescaled for amplitude
    continuity at the match radius.  Intended for overlap diagnostics at a
    converged eigenvalue.
    """
    rc = radial_coefficients(p, state)
    outward, inward = _sweeps(rc, E, cfg)
    val_o, log_o = _trajectory(rc, E, *outward)
    val_i, log_i = _trajectory(rc, E, *inward)
    # restore true relative magnitudes within each branch
    out = val_o * np.exp(log_o - log_o[-1])
    inw = (val_i * np.exp(log_i - log_i[-1]))[::-1]
    if inw[0] == 0.0:
        raise IntegrationBlowup("inward solution vanished at the match radius")
    inw = inw * (out[-1] / inw[0])
    F = np.concatenate([out, inw[1:]])
    r = cfg.r_min + outward[1] * np.arange(cfg.step_count + 1)  # step h
    norm = math.sqrt(np.trapezoid(F * F, r))
    return r, F / norm
