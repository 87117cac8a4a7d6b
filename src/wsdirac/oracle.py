"""Direct numerical eigensolve of the transformed radial equation.

Independent cross-check of the closed-form spectrum: F'' = U(r; E) F is
integrated outward from r_min and inward from r_max with a fixed-step
classical Runge-Kutta scheme, and the Wronskian of the two sweeps' (F, F')
vectors at the match radius, each scaled to unit length, is driven to zero
over E.  A solve builds each sweep's grid once, with the E-independent shape
f and c2 f^2 on its half-steps.  The equation is linear, so one RK4 step is
a 2x2 transfer matrix, closed-form in h and the step's three values of U.
A sweep's end state is their ordered product, the root of a pairwise tree
(the up-sweep) renormalized per level by positive factors, which keep its
direction, sign included: the mismatch is bounded, has no poles and changes
sign only at eigenvalues, each refined from the scan grid by Brent's method.
The amplitudes along a sweep, for node counts and the eigenfunction, are the
prefix products of the same matrices: a down-sweep over the tree's levels
with per-level log scales, O(steps) work (Blelloch, CMU-CS-90-190, 1990).
"""
from __future__ import annotations

import contextlib
import math
from collections import namedtuple
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


# a sweep's E-independent grid r0 + j h, j = 0..steps (h may be negative),
# with the shape f and q = c2 f^2 on its half-step grid
_Sweep = namedtuple("_Sweep", "r0 h steps f q")


def _sweep(rc: RadialCoefficients, r0: float, h: float, steps: int) -> _Sweep:
    f = shape_factor(r0 + (h / 2.0) * np.arange(2 * steps + 1, dtype=float),
                     rc.p.R, rc.p.a)
    return _Sweep(r0, h, steps, f, rc.c2 * f * f)


def _sweeps(rc: RadialCoefficients, cfg: ShootingConfig):
    """The outward sweep from r_min and the inward one from r_max, meeting at
    the grid point nearest the match radius."""
    h = (cfg.r_max - cfg.r_min) / cfg.step_count
    i_match = int(round((cfg.match_radius - cfg.r_min) / h))
    i_match = min(max(i_match, 1), cfg.step_count - 1)
    return (_sweep(rc, cfg.r_min, h, i_match),
            _sweep(rc, cfg.r_max, -h, cfg.step_count - i_match))


def _slopes(rc: RadialCoefficients, E: float, sweeps) -> tuple[float, float]:
    """Start slopes F'/F at E, growing at r_min and decaying at r_max; raises
    NotBoundRegime where c0(E) <= 0 (oscillatory tail)."""
    c0 = rc.c0(E)
    if c0 <= 0.0:
        raise NotBoundRegime(
            f"asymptotic coefficient <= 0 at E = {E}: oscillatory tail"
        )
    u_min = rc.u(sweeps[0].f[0], E)
    return math.sqrt(max(float(u_min), 0.0)), -math.sqrt(c0)


def _transfer_entries(rc: RadialCoefficients, E: float, sweep) -> np.ndarray:
    """Closed-form RK4 transfer matrices for y = (F, F'), shape (2, 2, steps).

    [..., j] maps y(r0 + j h) to y(r0 + (j+1) h).  With A = [[0, 1], [u, 0]]
    each RK4 stage is a polynomial in h and the values u1, u2, u3 of U at
    the step's start, midpoint and end; U is summed as in
    RadialCoefficients.u, so it keeps its bits.
    """
    u = rc.c0(E) + (rc.frak_u(E) - rc.c2) * sweep.f + sweep.q
    u1, u2, u3 = u[0:-1:2], u[1::2], u[2::2]
    h = sweep.h
    h2, h3 = h * h, h * h * h
    return np.stack([
        1.0 + h2 / 6.0 * (u1 + 2.0 * u2) + h2 * h2 / 24.0 * u1 * u2,
        h + h3 / 6.0 * u2,
        h / 6.0 * (u1 + 4.0 * u2 + u3) + h3 / 12.0 * u2 * (u1 + u3),
        1.0 + h2 / 6.0 * (2.0 * u2 + u3) + h2 * h2 / 24.0 * u2 * u3,
    ]).reshape(2, 2, -1)


def _compose(b: np.ndarray, a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The 2x2 products b @ a along the last axis, written to out."""
    np.multiply(b[:, :1], a[:1], out=out)
    out += b[:, 1:] * a[1:]
    return out


def _renormalize(M: np.ndarray) -> np.ndarray:
    """Divide each matrix of M in place by its max-abs entry; the factors."""
    scale = np.abs(M).max(axis=(0, 1))
    if not np.isfinite(scale).all():
        raise IntegrationBlowup("transfer-matrix product overflowed")
    np.maximum(scale, 1e-300, out=scale)
    M /= scale
    return scale


def _up_sweep(T: np.ndarray):
    """Levels of the pairwise tree over T's matrices, and their factors: level
    k + 1 holds the renormalized products of level k's pairs (an odd last
    matrix carried alone), up to T[-1] @ ... @ T[0] at the top."""
    levels, scales = [T], []
    while levels[-1].shape[2] > 1:
        M, half = levels[-1], levels[-1].shape[2] // 2
        out = np.empty((2, 2, M.shape[2] - half))
        _compose(M[..., 1:2 * half:2], M[..., 0:2 * half:2], out[..., :half])
        out[..., half:] = M[..., 2 * half:]
        scales.append(_renormalize(out))
        levels.append(out)
    return levels, scales


def _down_sweep(levels, scales):
    """Prefix products T[j] @ ... @ T[0] of the tree's level 0, as (P, logs):
    a node's prefix is its parent's at odd index, and at even index i > 0 the
    node times the prefix of the parent's left neighbour, renormalized.  The
    factors' logs add up, so prefix j is P[..., j] exp(logs[j])."""
    logs = [np.zeros(levels[0].shape[2])]
    for scale in scales:  # a node's log: its children's, plus its own factor's
        pairs = np.arange(0, len(logs[-1]), 2)
        logs.append(np.add.reduceat(logs[-1], pairs) + np.log(scale))
    P, P_log = levels[-1], logs[-1]
    for L, log in zip(levels[-2::-1], logs[-2::-1]):
        n, m = L.shape[2], (L.shape[2] - 1) // 2
        Q, Q_log = np.empty_like(L), np.empty(n)
        Q[..., 0], Q_log[0] = L[..., 0], log[0]
        Q[..., 1::2], Q_log[1::2] = P[..., :n // 2], P_log[:n // 2]
        even = _compose(L[..., 2::2], P[..., :m], Q[..., 2::2])
        Q_log[2::2] = log[2::2] + P_log[:m] + np.log(_renormalize(even))
        P, P_log = Q, Q_log
    return P, P_log


def _mismatch(E: float, rc: RadialCoefficients, sweeps) -> float:
    """Wronskian of the sweeps' end states (F, F') from (1, slope0), each
    scaled to unit length."""
    states = []
    for sweep, slope0 in zip(sweeps, _slopes(rc, E, sweeps)):
        t = _up_sweep(_transfer_entries(rc, E, sweep))[0][-1][..., 0]
        y = np.array([t[0, 0] + t[0, 1] * slope0, t[1, 0] + t[1, 1] * slope0])
        states.append(y / math.hypot(y[0], y[1]))
    (u0, u1), (w0, w1) = states
    return float(u0 * w1 - u1 * w0)


def _scanned_or_mismatch(E: float, scanned: dict, *solve) -> float:
    return scanned[E] if E in scanned else _mismatch(E, *solve)


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
    rc = radial_coefficients(p, state)
    return _mismatch(E, rc, _sweeps(rc, cfg))


def _trajectory(rc: RadialCoefficients, E: float, sweep, slope0: float):
    """Amplitudes F of the sweep from (1, slope0) as (values, log_scales):
    F at r0 + j h is values[j] * exp(log_scales[j])."""
    P, logs = _down_sweep(*_up_sweep(_transfer_entries(rc, E, sweep)))
    values = np.concatenate([[1.0], P[0, 0] + P[0, 1] * slope0])
    return values, np.concatenate([[0.0], logs])


def _count_nodes(values: np.ndarray) -> int:
    return int(np.sum(values[1:] * values[:-1] < 0.0))


def find_eigenvalues(cfg: ShootingConfig, p: PhysicalParams,
                     state: QuantumState, count: int,
                     scan_points: int = 400, tol: float = 1e-9) -> list[float]:
    """The first `count` shooting states inside the energy bracket, ordered
    by (outward node count, energy).

    One ascending pass over a grid of the bracket: where the mismatch changes
    sign between neighbouring points, Brent's method refines that cell to
    `tol` at once and the state's nodes are counted.  The mismatch has no
    poles, so every sign change holds an eigenvalue; a cell that holds an
    even number of them shows none.  The pass stops once the `count`-th
    smallest key found has 0 nodes: every later state lies higher with
    >= 0 nodes, so none can enter the result.
    """
    from scipy.optimize import brentq

    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rc = radial_coefficients(p, state)
    sweeps = _sweeps(rc, cfg)
    lo, hi = cfg.energy_bracket
    grid = np.linspace(lo, hi, scan_points).tolist()
    found, f_lo = [], math.nan  # NaN where the tail oscillates
    for i, E in enumerate(grid):
        f_hi = math.nan
        with contextlib.suppress(NotBoundRegime):
            f_hi = _mismatch(E, rc, sweeps)
        if f_lo * f_hi < 0.0:  # false where either end is NaN
            # brentq starts at both ends, which the scan holds; the state goes in
            # args, as brentq's wrapper is a cycle that would keep a closure alive
            ends = {grid[i - 1]: f_lo, E: f_hi}
            e_star = float(brentq(_scanned_or_mismatch, grid[i - 1], E,
                                  args=(ends, rc, sweeps), xtol=tol))
            values, _ = _trajectory(rc, e_star, sweeps[0],
                                    _slopes(rc, e_star, sweeps)[0])
            found = sorted(found + [(_count_nodes(values), e_star)])
            if len(found) >= count and found[count - 1][0] == 0:
                break
        f_lo = f_hi
    if not found:
        raise NoEigenvalueInBracket(
            f"no shooting eigenvalue in ({lo}, {hi}) for this configuration"
        )
    return [e for _, e in found[:count]]


def shoot_eigenfunction(E: float, cfg: ShootingConfig, p: PhysicalParams,
                        state: QuantumState):
    """Stitched, L2-normalized eigenfunction at energy E on the shooting grid.

    Returns (r, F) arrays; the inward branch is rescaled for amplitude
    continuity at the match radius.  Intended for overlap diagnostics at a
    converged eigenvalue.
    """
    rc = radial_coefficients(p, state)
    sweeps = _sweeps(rc, cfg)
    slopes = _slopes(rc, E, sweeps)
    val_o, log_o = _trajectory(rc, E, sweeps[0], slopes[0])
    val_i, log_i = _trajectory(rc, E, sweeps[1], slopes[1])
    # restore true relative magnitudes within each branch
    out = val_o * np.exp(log_o - log_o[-1])
    inw = (val_i * np.exp(log_i - log_i[-1]))[::-1]
    if inw[0] == 0.0:
        raise IntegrationBlowup("inward solution vanished at the match radius")
    inw = inw * (out[-1] / inw[0])
    F = np.concatenate([out, inw[1:]])
    r = cfg.r_min + sweeps[0].h * np.arange(cfg.step_count + 1)  # step h
    norm = math.sqrt(np.trapezoid(F * F, r))
    return r, F / norm
