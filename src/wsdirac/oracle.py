"""Direct numerical eigensolve of the transformed radial equation.

Independent cross-check of the closed-form spectrum: F'' = U(r; E) F is
integrated outward from r_min and inward from r_max with the classical
Runge-Kutta scheme, and the Wronskian of the two sweeps' (F, F') vectors at
the match radius, each scaled to unit length, is driven to zero over E.  A
solve builds one grid of both sweeps' steps, which grow away from the match
radius where errors reach the mismatch damped (_sweeps).  The equation is
linear, so one RK4 step is a 2x2 transfer matrix, closed-form in the step's h
and its three values of U, which is quadratic in E: each entry is a quartic
in E - E_ref, E_ref the bracket's midpoint, whose coefficients the grid holds
(_transfer_entries).  A sweep's end state is the matrices' ordered product,
the root of a pairwise tree renormalized by powers of two: exact, so its
direction keeps every bit, sign included, and needed only as often as a bound
on the grid's matrices over the bracket says the float range requires.
The mismatch is bounded, has no poles and changes sign only at eigenvalues.
One kernel, _mismatches, takes a block of energies through one pass of the
tree over both directions (_tops), so its fixed cost per level is paid once
per block.  The scan takes its energies through it a block at a time, and its
sign changes are refined together by a port of scipy's brentq, run as
generators in lockstep so that one pass serves every root's next step; the
oracle imports no scipy.  Where node counts rise with E (Sturm), the scan
stops at its count-th state.  The amplitudes along a sweep, for node counts
and the eigenfunction, take no tree but a forward pass over blocks of steps
(_trajectory).  Each eigenvalue is a float that carries its node count and
solve (ShootingState).
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import (IntegrationBlowup, NoEigenvalueInBracket, NotBoundRegime,
                     RefinementNotConverged)
from .params import (PhysicalParams, QuantumState, RadialCoefficients, radial_coefficients,
                     require_integer)
from .pekeris import shape_factor


# The default RK4 step count, and the least ShootingConfig accepts.  A
# solve's eigenvalue error is C N^-4 at N steps; C_max = 1.2e5 is the largest
# C measured, each a Richardson estimate between 5000 and 10000 steps, over
# the 60 oracle-ground bench wells of seeds 1-6.  The count is the smallest
# multiple of 1000 with C_max N^-4 <= 1e-10, a tenth of find_eigenvalues'
# default tol: (1.2e5 / 1e-10)^(1/4) = 5849, so 6000.
DEFAULT_STEP_COUNT = 6_000


def _as_float(name: str, value) -> float:
    """value as the float that math's functions read, or a ValueError naming
    it where that conversion overflows (an int such as 10**400)."""
    try:
        return math.ldexp(value, 0)  # the conversion alone: x * 2^0 is x
    except OverflowError:
        raise ValueError(f"{name} must lie in the float range") from None


@dataclass(frozen=True)
class ShootingConfig:
    """Search bracket and RK4 step count of a solve; the well sets its domain."""

    energy_bracket: tuple[float, float]
    step_count: int

    # stored as floats and an int: a numpy uint16 step count wraps in _sweeps,
    # and an array bracket breaks the comparison of solve keys
    def __post_init__(self):
        lo, hi = (_as_float("energy_bracket", x) for x in self.energy_bracket)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"energy_bracket must be finite, got ({lo}, {hi})")
        if not lo < hi:
            raise ValueError(f"invalid energy bracket ({lo}, {hi})")
        object.__setattr__(self, "energy_bracket", (lo, hi))
        object.__setattr__(self, "step_count", require_integer(
            "step_count", self.step_count, DEFAULT_STEP_COUNT))


def _truncation(p: PhysicalParams) -> tuple[float, float, float]:
    """The shooting domain of the well, (r_min, r_max, r_match) = (R/100,
    R + 40 a, R); raises ValueError where floats cannot represent it as
    0 < r_min < r_match < r_max with r_max finite."""
    r_min, r_max, r_match = p.R / 100.0, p.R + 40.0 * p.a, p.R
    if not (0.0 < r_min < r_match < r_max and math.isfinite(r_max)):
        raise ValueError(f"need 0 < r_min < r_match < r_max < inf, got "
                         f"({r_min}, {r_match}, {r_max})")
    return r_min, r_max, r_match


def default_config(p: PhysicalParams, energy_bracket: tuple[float, float],
                   step_count: int = DEFAULT_STEP_COUNT) -> ShootingConfig:
    """The config of a solve on the well p over energy_bracket, after
    checking that the well's truncation (see _truncation) is representable.

    step_count sets the base step h = (r_max - r_min) / step_count, which
    each sweep takes from the match radius R out to where U nears its
    asymptote at that end of the domain (about 3.5a past R and 5a inside it
    on the attractive well); beyond, the steps grow to about 30 h (see
    _sweeps), so a solve whose bracket is bound takes fewer than step_count
    steps.  At the default step count, DEFAULT_STEP_COUNT, an eigenvalue's
    discretization error is at most about 1e-10; a larger step_count gives
    less (20000 steps give about 1e-13).
    """
    _truncation(p)
    return ShootingConfig(energy_bracket=energy_bracket, step_count=step_count)


# Grid points per kernel pass of find_eigenvalues' scan.  A pass has a fixed
# cost per tree level, which a block shares, and a cost per matrix, which it
# does not once its arrays outgrow the cache; a pass builds a matrix per
# energy for each of the grid's steps, both directions' and their pads' (1408
# on the attractive well at 6000 steps).  One energy's share of a pass near
# the ground state of the attractive well (V0 = 10, alpha' = 0.0015, ell =
# 20, D = 3), in ms (best of 3 tables, each best of 9 runs of 9 rounds of 64
# energies, 6 of 3 at 80000 steps; 2-core Xeon):
#   steps    k = 1    4      8      16     32     64
#    6000     0.140  0.049  0.034  0.028  0.026  0.027
#   10000     0.149  0.062  0.050  0.045  0.044  0.047
#   20000     0.209  0.109  0.092  0.090  0.096  0.102
#   80000     0.466  0.383  0.397  0.399  0.492  0.634
# 32 is 2-7% cheaper per energy at 6000 and 10000 steps, but a block bounds
# the points a pass scans past the stop: at 32 the bench scans, which stop
# after 48 of 60 points (oracle-ladder) and 16 of 25 (oracle-ground), scan
# them all, and their requests took 17% and 12% longer (medians of 3
# alternated pairs).  16 is the best at 20000 steps and 4% above it at 80000.
_SCAN_BLOCK = 16


# A solve's grid: each direction's nodes r (outward ones ascending, inward
# ones descending), the coefficients D at E_ref of _coefficients of both
# directions' steps end to end, outward first, each padded with steps of h = 0
# to whole rows of _ROW steps (rows[d] of them), f_ends, the shape at r_min
# and at the match node, and every, a pass's levels per renormalization
_Grid = namedtuple("_Grid", "r D E_ref rows f_ends every")

# Steps per row of the grid, a power of two.  A step of h = 0 is the
# identity to the bit where U is finite, and a product with it leaves the
# other factor's bits, so padding a direction to whole rows changes no
# product of its pairwise tree; no row straddles the two directions, so a
# pass takes both through the tree's first log2(_ROW) levels at once
_ROW = 128


def _grid(rc: RadialCoefficients, out: np.ndarray, inw: np.ndarray,
          bracket) -> _Grid:
    """The grid of the outward nodes out and the inward nodes inw for the
    energies of bracket, its coefficients taken at its midpoint E_ref.  A
    pad's node and midpoint sit at its direction's last node, so U is finite
    there; the outward direction gets at least one pad, whose last step joins
    the outward end to the inward start.  A 2x2 product's max-abs entry is
    at most twice its factors', so j tree levels over entries of at most L >=
    1, or over a renormalized level, stay below 2^(2^j - 1) L^(2^j): `every`
    is the largest j <= log2(_ROW) that keeps this below 2^1023, L = max
    sum_p |D[p]| r^p, r the bracket's largest |E - E_ref| (L = 8.7 on BOUND,
    every = 7; every = 2 at V0 = 1e20), or 1 where L is not finite."""
    rows = ((len(out) - 1) // _ROW + 1, -(-(len(inw) - 1) // _ROW))
    bounds = (0, _ROW * rows[0], _ROW * sum(rows))  # each direction's steps
    h = np.zeros(bounds[-1])
    x = np.empty(2 * bounds[-1] + 1)  # the steps' nodes and midpoints
    nodes = x[0::2]
    for r, start, end in zip((out, inw), bounds, bounds[1:]):
        h[start:start + len(r) - 1] = np.diff(r)
        # through node `end`, which the inward start then takes
        nodes[start:end + 1] = r[-1]
        nodes[start:start + len(r)] = r
    x[1::2] = nodes[:-1] + h / 2.0
    f = shape_factor(x, rc.p.R, rc.p.a)
    lo, hi = bracket
    E_ref = 0.5 * (lo + hi)
    D = _coefficients(rc, f, h, E_ref)
    with np.errstate(over="ignore", invalid="ignore"):  # a bound past range: 1
        powers = max(E_ref - lo, hi - E_ref) ** np.arange(5.0)
        bits = 1.0 + math.log2((powers @ np.abs(D).reshape(5, -1)).max())
    every = max((j for j in range(1, _ROW.bit_length()) if 2 ** j * bits < 1024),
                default=1)
    return _Grid((out, inw), D, E_ref, rows, (f[0], f[2 * (len(out) - 1)]), every)


def _coefficients(rc: RadialCoefficients, f: np.ndarray, h: np.ndarray,
                  E_ref: float) -> np.ndarray:
    """D[p, e, j], the coefficient of eps^p, eps = E - E_ref, in entry e
    (row-major) of the RK4 matrix of step j, of h[j] and f at its nodes and
    midpoint.  With A = [[0, 1], [u, 0]] and u1, u2, u3 the values of U at
    the step's start, midpoint and end, that matrix is
        [[1 + h^2/6 (u1 + 2 u2) + h^4/24 u1 u2,   h + h^3/6 u2],
         [h/6 (u1 + 4 u2 + u3) + h^3/12 u2 (u1 + u3),
          1 + h^2/6 (2 u2 + u3) + h^4/24 u2 u3]],
    and U = a + b eps - eps^2, a = U(r; E_ref) summed as in
    RadialCoefficients.u, b = -(2 E_ref + V0 f).  A pad (h = 0) gets
    D = (I, 0, 0, 0, 0), the identity at every energy to the bit."""
    a, b = rc.u(f, E_ref), -(2.0 * E_ref + rc.p.V0 * f)
    (a1, a2, a3), (b1, b2, b3) = ((v[:-1:2], v[1::2], v[2::2]) for v in (a, b))
    h2 = h * h
    k2, k3, k4 = h2 / 6.0, h2 * h / 12.0, h2 * h2 / 24.0
    D = np.zeros((5, 4, len(h)))
    for e, x, y in ((0, a1, b1), (3, a3, b3)):  # the diagonal, u_end = u1, u3
        D[:, e] = (1.0 + k2 * (x + 2.0 * a2) + k4 * x * a2,
                   k2 * (y + 2.0 * b2) + k4 * (x * b2 + a2 * y),
                   k4 * (y * b2 - x - a2) - 3.0 * k2, -k4 * (y + b2), k4)
    D[:3, 1] = h + 2.0 * k3 * a2, 2.0 * k3 * b2, -2.0 * k3
    sa, sb, h6 = a1 + a3, b1 + b3, h / 6.0
    D[:, 2] = (h6 * (sa + 4.0 * a2) + k3 * a2 * sa,
               h6 * (sb + 4.0 * b2) + k3 * (a2 * sb + b2 * sa),
               k3 * (b2 * sb - 2.0 * a2 - sa) - h, -k3 * (sb + 2.0 * b2),
               2.0 * k3)
    return D


# The grading of both sweeps away from the match node.  The shape is
# symmetric about R, 1 - f(R - y) = f(R + y), so U(r; E) nears an asymptote
# at each end of the domain: U_end(E), U at the shape's limit f_end there (0
# past R, where U_end = c0(E); 1 inside R, where U_end = c0(E) + frak_u(E)).
# In the vanishing shape g = |f - f_end|, U - U_end = c1' g + c2 g^2, with
# c1' = c1(E) past R and -(frak_u(E) + c2) inside.  Where U is close to
# U_end, with kappa = sqrt(U_end(E)), the inward sweep's bound state decays
# like e^{-kappa x} a distance x past the match node, and the outward one's
# grows like e^{kappa r}, so it is e^{-kappa x} of its match value a
# distance x before the match node.  Either way an error made at x reaches
# the mismatch damped by about e^{-2 kappa x}, and RK4's error there goes as
# step^4.  So each sweep keeps the base step h out to x_g, where |U - U_end|
# = |c1' g + c2 g^2| is at most _TAIL_ASYMPTOTE U_end at every energy of the
# bracket (on BOUND's ground state about 3.5a past R and 5a inside it; 6a
# past R on the weakly bound state at alpha' = 0.01, whose U dips below zero
# just outside R), and beyond it grows the step as h e^{beta (x - x_g)},
# beta = _TAIL_GROWTH kappa_min: below kappa_min / 2, so step^4 e^{-2 kappa
# x} still decays at the slowest rate the bracket allows, kappa_min =
# sqrt(min(U_end(lo), U_end(hi))).  The step is capped at _TAIL_CAP h, and at
# 1 / kappa_max (but not below h), where RK4's one-step factors for the
# fastest rate in the bracket, e^{+-kappa h}, are within 2% and well inside
# its stability interval (kappa h < 2.78).  Where the bracket reaches U_end
# <= 0 (the continuum past R, an oscillatory interior inside it) the sweep
# stays uniform.  On BOUND's ground state at the default step count the
# grading takes the inward sweep from 4456 to 584 steps and the outward one
# from 1544 to 763; over the 60 oracle-ground bench wells of seeds 1-6 it
# moves no eigenvalue by more than 2e-15.
_TAIL_ASYMPTOTE = 0.1
_TAIL_GROWTH = 0.4
_TAIL_CAP = 30.0


def _graded_tail(rc: RadialCoefficients, bracket, r_match: float,
                 r_end: float, h: float) -> np.ndarray | None:
    """Nodes from r_match to exactly r_end (r_max or r_min) of the sweep
    graded for the energies of the bracket by the rule above, or None where
    U_end <= 0 at an energy of the bracket: nodes at about unit steps of
    xi(x) = int_0^x dx' / s(x'), the number of steps s(x) that reach the
    distance x from r_match, inverted in closed form over its three pieces
    (uniform, geometric, capped)."""
    sign = 1.0 if r_end > r_match else -1.0
    f_end = (1.0 - sign) / 2.0  # the shape's limit at r_end
    lo, hi = bracket
    # U_end is a downward parabola in E, largest at E = -V0 f_end / 2, so
    # least at an end; c1' is linear in E
    kappa2_min = min(rc.u(f_end, E) for E in bracket)
    if not kappa2_min > 0.0:
        return None
    e_top = min(max(-0.5 * rc.p.V0 * f_end, lo), hi)
    kappa_max = math.sqrt(rc.u(f_end, e_top))
    c1 = max(abs(sign * rc.frak_u(E) - rc.c2) for E in bracket)
    # the shape g_g <= 1/2 at which |c1'| g + |c2| g^2 = _TAIL_ASYMPTOTE
    # kappa2_min
    b = _TAIL_ASYMPTOTE * kappa2_min
    g_g = 2.0 * b / max(c1 + math.sqrt(c1 * c1 + 4.0 * abs(rc.c2) * b), 4.0 * b)
    length = sign * (r_end - r_match)
    x_g = sign * (rc.p.R + sign * rc.p.a * math.log(1.0 / g_g - 1.0) - r_match)
    x_g = min(max(x_g, 0.0), length)
    beta = _TAIL_GROWTH * math.sqrt(kappa2_min)
    cap = min(_TAIL_CAP, max(1.0, 1.0 / (kappa_max * h)))
    x_c = min(x_g + math.log(cap) / beta, length)
    xi_g = x_g / h
    xi_c = xi_g - math.expm1(-beta * (x_c - x_g)) / (beta * h)
    xi_end = xi_c + (length - x_c) / (cap * h)
    # steps of h exactly up to x_g, where the error is not damped; the rest
    # shares the rounding of xi_end to a whole number of steps
    n_g = max(0, min(int(xi_g), round(xi_end) - 1))
    xi = np.concatenate([np.arange(n_g), np.linspace(
        n_g, xi_end, max(1, round(xi_end - n_g)) + 1)])
    # x(xi), piece by piece: each term is constant outside its own piece
    x = h * np.minimum(xi, xi_g)
    x -= np.log1p(-beta * h * (np.clip(xi, xi_g, xi_c) - xi_g)) / beta
    x += cap * h * np.maximum(xi - xi_c, 0.0)
    r = r_match + sign * x
    r[-1] = r_end
    return r


def _sweeps(rc: RadialCoefficients, cfg: ShootingConfig) -> _Grid:
    """The grid of the outward sweep from r_min and the inward one from
    r_max, meeting at the node nearest r_match of the uniform grid of
    step_count steps of h = (r_max - r_min) / step_count, on the truncation
    of the well rc was built for (see _truncation).

    Each sweep keeps h from the match node out to where U is close to its
    asymptote at that end for every energy of the bracket, then grades the
    steps up to about 30 h by the rule above, ending exactly at r_min or
    r_max; where the bracket reaches U_end <= 0 at that end, its nodes are
    the rest of the uniform grid's.  Its coefficients are taken at the
    bracket's midpoint.
    """
    r_min, r_max, r_match = _truncation(rc.p)
    uniform = np.linspace(r_min, r_max, cfg.step_count + 1)
    h = (r_max - r_min) / cfg.step_count
    i_match = int(round((r_match - r_min) / h))
    i_match = min(max(i_match, 1), cfg.step_count - 1)
    sweeps = []  # each from its end of the domain to the match node
    for nodes, r_end in ((uniform[i_match::-1], r_min),
                         (uniform[i_match:], r_max)):
        graded = _graded_tail(rc, cfg.energy_bracket, nodes[0], r_end, h)
        sweeps.append((nodes if graded is None else graded)[::-1])
    return _grid(rc, *sweeps, cfg.energy_bracket)


def _inward_slope(rc: RadialCoefficients, E: float) -> float:
    """Start slope F'/F at E decaying at r_max, -sqrt(c0(E)); raises
    NotBoundRegime where c0(E) <= 0 (oscillatory tail)."""
    c0 = rc.c0(E)
    if c0 <= 0.0:
        raise NotBoundRegime(
            f"asymptotic coefficient <= 0 at E = {E}: oscillatory tail"
        )
    return -math.sqrt(c0)


def _slopes(rc: RadialCoefficients, E: float, grid: _Grid) -> tuple[float, float]:
    """Start slopes F'/F at E, growing at r_min and decaying at r_max; raises
    NotBoundRegime where c0(E) <= 0 (oscillatory tail)."""
    inward = _inward_slope(rc, E)
    u_min = rc.u(grid.f_ends[0], E)
    return math.sqrt(max(float(u_min), 0.0)), inward


def _transfer_entries(E, D: np.ndarray, E_ref: float, T=None):
    """RK4 transfer matrices for y = (F, F'), shape (2, 2, steps) at a scalar E
    and (2, 2, k, steps) at the k energies of a 1-d E, written to T if given:
    [..., j] maps y across step j, the polynomial of D[:, :, j] (see
    _coefficients) in eps = E - E_ref.  One einsum contracts the powers of
    eps with D: it keeps each energy's bits in a block of any size, where
    matmul's one-energy call would not."""
    E = np.asarray(E, dtype=float)
    powers = np.ones((E.size, 5))  # 1, eps, eps^2, eps^3, eps^4
    powers[:, 1:] = E.reshape(-1, 1) - E_ref
    np.cumprod(powers, axis=1, out=powers)
    if T is None:
        T = np.empty((2, 2) + E.shape + D.shape[-1:])
    np.einsum("kp,pen->ekn", powers, D, out=T.reshape(4, E.size, -1))
    return T


def _compose(b: np.ndarray, a: np.ndarray, out: np.ndarray,
             tmp: np.ndarray) -> np.ndarray:
    """The 2x2 products b @ a along the last axis, written to out, with tmp
    as scratch of out's shape."""
    np.multiply(b[:, :1], a[:1], out=out)
    out += np.multiply(b[:, 1:], a[1:], out=tmp)
    return out


def _renormalize(M: np.ndarray, tmp: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Scale each matrix of M in place, exactly, by the power of two that puts
    its max-abs entry in [1/2, 1), raising IntegrationBlowup where one is not
    finite; tmp (of M's shape) and scale receive |M| and those entries.
    Returns the exponents k of the powers 2^-k applied."""
    np.maximum.reduce(np.abs(M, out=tmp), axis=(0, 1), out=scale)
    if not np.isfinite(scale).all():
        raise IntegrationBlowup("transfer-matrix product overflowed")
    exponents = np.frexp(scale)[1]
    np.ldexp(M, -exponents, out=M)
    return exponents


def _halve(M: np.ndarray, halves: np.ndarray, side: int, every: int):
    """The root of the pairwise tree along the last axis of M, shape (2, 2,
    m, a power of two), M in halves[side]: level by level, the products
    M[..., 2i+1] @ M[..., 2i], each level to the other half with its scratch;
    every `every`-th level and the last are renormalized, their max-abs
    entries over the dead level before.  Returns the root, shape (2, 2, m,
    1), and the half it lies in."""
    level, m, n = 0, M.shape[2], M.shape[3]
    while n > 1:
        level, n, side = level + 1, n // 2, 1 - side
        out, tmp = halves[side][:8 * m * n].reshape(2, 2, 2, m, n)
        _compose(M[..., 1::2], M[..., ::2], out, tmp)
        if level % every == 0 or n == 1:
            _renormalize(out, tmp, halves[1 - side][:m * n].reshape(m, n))
        M = out
    return M, side


def _tops(E, grid: _Grid) -> np.ndarray:
    """The tops of both directions' trees at the energies E, shape (2, 2,
    len(E), 2), direction last, each matrix's max-abs entry in [1/2, 1), with
    the bits of a tree over each direction's own steps renormalized at every
    level: one tree over the whole grid, in one workspace.  The transfer
    matrices fill one half of it, and each level goes to the half its input
    is not in.  The tree takes every row to its product, gathers the rows by
    direction, each filled with identities to a power of two (an identity
    after the odd last of a level leaves it as carried alone), and is
    finished over them, renormalizing every grid.every levels and at the end
    of each part.  A pass past the float range (at energies far outside the
    grid's bracket) runs again, renormalizing every level, in the caller's
    error state."""
    k, (rows_out, rows_in) = len(E), grid.rows
    wide = 1 << (max(grid.rows) - 1).bit_length()
    halves = np.empty((2, 4 * k * grid.D.shape[-1]))
    T = halves[0].reshape(2, 2, -1, _ROW)  # energies and rows on one axis
    for every, ignored in ((grid.every, "ignore"), (1, None)):
        try:
            with np.errstate(over=ignored, invalid=ignored):
                _transfer_entries(E, grid.D, grid.E_ref, T)
                M, side = _halve(T, halves, 0, every)
                M = M.reshape(2, 2, k, -1)
                G = halves[1 - side][:8 * k * wide].reshape(2, 2, k, 2, wide)
                G[...] = np.eye(2).reshape(2, 2, 1, 1, 1)
                G[..., 0, :rows_out] = M[..., :rows_out]
                G[..., 1, :rows_in] = M[..., rows_out:]
                G = G.reshape(2, 2, 2 * k, wide)
                return _halve(G, halves, 1 - side, every)[0].reshape(2, 2, k, 2)
        except IntegrationBlowup:
            if ignored is None:
                raise


def _mismatches(Es, rc: RadialCoefficients, grid: _Grid) -> np.ndarray:
    """Mismatch at each energy of the sequence Es, NaN where the tail
    oscillates: one pass of _tops over the whole block.  The Wronskian of
    the sweeps' end states (F, F') from (1, slope0), each scaled to unit
    length, with the bits of one energy's own pass."""
    out = np.full(len(Es), np.nan)
    bound, slopes = [], []
    for i, E in enumerate(Es):
        try:
            slopes.append(_slopes(rc, E, grid))
        except NotBoundRegime:
            continue
        bound.append(i)
    if not bound:
        return out
    tops = _tops([Es[i] for i in bound], grid)
    y = tops[:, 0] + tops[:, 1] * np.array(slopes)  # (F, F'), energy, direction
    y /= np.array(list(map(math.hypot, *y.reshape(2, -1).tolist()))).reshape(-1, 2)
    (u0, w0), (u1, w1) = y.transpose(0, 2, 1)
    out[bound] = u0 * w1 - u1 * w0
    return out


def shoot_mismatch(E: float, cfg: ShootingConfig, p: PhysicalParams,
                   state: QuantumState) -> float:
    """Matching Wronskian at the match radius; zero iff E is an eigenvalue.

    The outward sweep starts on the locally growing solution at r_min; the
    inward sweep starts on the decaying asymptotic solution at r_max.  With
    u = (F, F')_out and w = (F, F')_in at the match radius, each scaled to
    unit length, the mismatch is u_0 w_1 - u_1 w_0: it lies in [-1, 1] and
    changes sign only where the two sweeps meet as one solution.
    Raises NotBoundRegime when the asymptotic coefficient is non-positive
    (oscillatory tail, no bound state possible at this E), and ValueError
    where E is NaN or past the float range.  The grid is graded for the
    energies of cfg's bracket widened to hold E (see _sweeps), so an E
    inside the bracket gets the bracket's own grid.
    """
    if math.isnan(_as_float("E", E)):
        raise ValueError(f"E must be a number, got {E}")
    rc = radial_coefficients(p, state)
    if math.isfinite(E):
        lo, hi = cfg.energy_bracket
        cfg = ShootingConfig((min(lo, E), max(hi, E)), cfg.step_count)
    grid = _sweeps(rc, cfg)
    _slopes(rc, E, grid)  # raises NotBoundRegime where the tail oscillates
    return float(_mismatches([E], rc, grid)[0])


# The bound on |F| of _trajectory: a block's start state is divided by its
# size |F| + |F'|, and the size's log carried, once that size passes 2^500
# over the block's largest prefix entry, so |F| stays below 2^501 unless one
# block grows by more (to 1e225 at depth 1e10; node counts read signs alone)
_RESCALE = 2.0 ** 500
_LN2 = math.log(2.0)

# Steps per block of _trajectory, a divisor of _ROW, so that a direction's
# rows are whole blocks.  Its outward and inward trajectories at the ground
# state of the attractive well (V0 = 10, alpha' = 0.0015, ell = 20, D = 3)
# at 6000 steps, 763 and 584 steps long, took in ms (best of 3 runs of best
# of 7 x 30 calls; a 2-core Xeon), against 0.515 ms at one step per block:
#   steps per block   4      8      16     32
#   ms               0.234  0.225  0.271  0.400
_TRAJECTORY_BLOCK = 8


def _trajectory(E: float, D: np.ndarray, E_ref: float, n: int, slope0: float):
    """Amplitudes F at the n nodes of a direction from (1, slope0), D the
    coefficients at E_ref of its steps from its first, as (values,
    log_scales): F at node j is values[j] * exp(log_scales[j]).  The transfer
    matrices of the whole blocks of _TRAJECTORY_BLOCK steps that hold its
    n - 1 steps give every block's prefix products P at once, blocks on the
    last axis; y <- P @ y steps the state by each block's product on Python
    floats, and row 0 of the block's P applied to its start state gives F
    inside it, up to the direction's last node.  A pass whose prefixes leave
    the float range (on deep wells, at depth 1e13 and past) runs again, in
    the caller's error state, scaling each prefix by the power of two of
    _renormalize, whose exponents the log scales carry; its state is
    rescaled at every block's start.  Raises IntegrationBlowup where a
    matrix or state is not finite."""
    width = _TRAJECTORY_BLOCK
    T = _transfer_entries(E, D[..., :-(-(n - 1) // width) * width], E_ref)
    T = T.reshape(2, 2, -1, width).transpose(0, 1, 3, 2)
    P, tmp = np.empty(T.shape), np.empty(T[:, :, 0].shape)
    P[:, :, 0] = T[:, :, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, width):
            _compose(T[:, :, j], P[:, :, j - 1], P[:, :, j], tmp)
    limits = np.abs(P).max(axis=(0, 1, 2))  # each block's largest entry
    exponents = None  # of the prefixes' scales, where they are scaled
    if np.isfinite(limits).all():
        limits = _RESCALE / limits
    else:
        exponents = np.empty(T.shape[2:], dtype=int)
        exponents[0] = _renormalize(P[:, :, 0], tmp, limits)
        for j in range(1, width):
            _compose(T[:, :, j], P[:, :, j - 1], P[:, :, j], tmp)
            exponents[j] = exponents[j - 1] + _renormalize(P[:, :, j], tmp, limits)
        limits[:] = 0.0  # every block's start state rescaled
    f, g, log, starts = 1.0, slope0, 0.0, []
    for t00, t01, t10, t11, limit in zip(*P[:, :, -1].reshape(4, -1).tolist(),
                                         limits.tolist()):
        if (size := abs(f) + abs(g)) > limit:
            f, g, log = f / size, g / size, log + math.log(size)
        starts += f, g, log
        f, g = t00 * f + t01 * g, t10 * f + t11 * g
    # NaN or inf from the first block whose matrices or state are not finite
    if not math.isfinite(f + g + log):
        raise IntegrationBlowup("transfer-matrix product overflowed")
    f0, g0, logs = np.array(starts).reshape(-1, 3).T
    values = np.concatenate(([1.0], (P[0, 0] * f0 + P[0, 1] * g0).T.ravel()))
    if exponents is None:
        logs = np.repeat(logs, width)
    else:
        # a block starts at the scaled products of the blocks before it
        before = np.cumsum(exponents[-1]) - exponents[-1]
        logs = (logs + _LN2 * (before + exponents)).T.ravel()
    logs = np.concatenate(([0.0], logs))
    return values[:n], logs[:n]


def _count_nodes(values: np.ndarray) -> int:
    return int(np.sum(np.sign(values[1:]) * np.sign(values[:-1]) < 0.0))


# Brent's method as scipy.optimize.brentq runs it, ported line by line from
# scipy/optimize/Zeros/brentq.c (BSD-3-Clause; Brent, "Algorithms for
# Minimization without Derivatives", 1973, ch. 4), with brentq's relative
# tolerance and iteration limit, so that each root keeps brentq's bits
_BRENT_RTOL = 4.0 * float(np.finfo(float).eps)
_BRENT_MAXITER = 100


def _brentq(xpre: float, xcur: float, fpre: float, fcur: float, xtol: float):
    """Brent's root of f on [xpre, xcur] from the ends' values f(xpre) = fpre
    and f(xcur) = fcur, as a generator: it yields each point at which f is
    wanted, is sent f there, and returns the root.  Raises ValueError where
    the ends' values have the same sign and RefinementNotConverged after
    _BRENT_MAXITER evaluations."""
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if (fpre != 0.0 and fcur != 0.0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)  # interpolate
                else:
                    dpre = (fpre - fcur) / (xpre - xcur)  # extrapolate
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                stry = math.inf  # takes no step, as C's inf or NaN does
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = yield xcur
    raise RefinementNotConverged(
        f"Brent's method did not converge in {_BRENT_MAXITER} iterations, "
        f"last value {xcur}")


def _refine(cells, tol: float, rc: RadialCoefficients, grid: _Grid) -> list[float]:
    """The roots of the mismatch in the sign-change cells (a, b, f(a), f(b)),
    each refined by _brentq to `tol`, in lockstep: one kernel pass takes
    every unfinished root's next point."""
    runs = [_brentq(*cell, tol) for cell in cells]
    roots, sent = [None] * len(runs), dict.fromkeys(range(len(runs)))
    while True:
        wanted = {}
        for i, run in enumerate(runs):
            if roots[i] is None:
                try:
                    wanted[i] = run.send(sent[i])
                except StopIteration as stop:
                    roots[i] = stop.value
        if not wanted:
            return roots
        values = _mismatches(list(wanted.values()), rc, grid).tolist()
        sent = dict(zip(wanted, values))


# What a ShootingState carries of its solve: key = (cfg, p, state), their
# coefficients rc, what shoot_eigenfunction reads of the grid, inward = (both
# directions' nodes, the inward steps' coefficients, E_ref), which the states
# of one solve share, and the outward (values, log_scales) at its energy
_Solve = namedtuple("_Solve", "key rc inward outward")


class ShootingState(float):
    """A shooting eigenvalue: the float is its energy, to the bit.

    nodes is the outward sweep's node count at it, by which find_eigenvalues
    ranks its states.  The state also carries its solve: the (cfg, p, state)
    it was found for, their coefficients, their grid's nodes and inward
    coefficients, and the outward amplitudes at the energy, which
    shoot_eigenfunction reuses when handed the state with equal (cfg, p,
    state).  It hashes, orders, prints and serializes as its float; a pickle
    or copy keeps the energy and nodes, not the solve.
    """

    __slots__ = ("nodes", "_solve")

    def __new__(cls, energy, nodes: int, solve: _Solve | None = None):
        self = super().__new__(cls, energy)
        self.nodes, self._solve = nodes, solve
        return self

    def __reduce__(self):
        return type(self), (float(self), self.nodes)


def _shooting_state(E: float, key, rc: RadialCoefficients, grid: _Grid,
                    inward) -> ShootingState:
    """The state at E of the solve key on rc and grid, carrying `inward`,
    which the states of one solve share (see _Solve): one outward sweep,
    whose amplitudes give its nodes.  Raises NotBoundRegime where c0(E) <= 0
    (oscillatory tail)."""
    outward = _trajectory(E, grid.D, grid.E_ref, len(grid.r[0]),
                          _slopes(rc, E, grid)[0])
    return ShootingState(E, _count_nodes(outward[0]),
                         _Solve(key, rc, inward, outward))


def find_eigenvalues(cfg: ShootingConfig, p: PhysicalParams,
                     state: QuantumState, count: int,
                     scan_points: int = 400, tol: float = 1e-9) -> list[ShootingState]:
    """The first `count` shooting states inside the energy bracket, ordered
    by (outward node count, energy), each a ShootingState: a float, the
    eigenvalue, with its node count `.nodes` and its solve, which
    shoot_eigenfunction of the state reuses.

    One ascending pass over a grid of the bracket, a block of points per
    kernel pass: where the mismatch changes sign between neighbouring
    points, Brent's method refines that cell to `tol` and the state's nodes
    are counted.  The mismatch has no poles, so every sign change holds an
    eigenvalue; a cell that holds an even number of them shows none.  The
    pass stops once no later state can outrank the `count`-th smallest key
    found: a later state lies higher, with at least a floor of nodes.  The
    floor is 0, unless node counts rise with E: where w = 2 lo + V0 f > 0 on
    the outward sweep, lo the bracket's low end (w is linear in f, so f at
    r_min and at r_match decide it), dU/dE = -(2E + V0 f) < 0 at every
    energy scanned, and U and the start slope sqrt(max(U(r_min), 0)) both
    fall as E rises, so the node count cannot fall (Sturm).  There the floor
    is the most nodes found, while the states found ascend in energy as they
    do in key; once they do not, the grid's counts have failed to rise, and
    the floor is 0 from then on.  Refinement waits until the states found
    and the cells pending could number `count`, as fewer cannot stop the
    pass.  Where counts rise, only the lowest cells that could make up
    `count` states are refined, the others kept pending; otherwise all
    pending cells are.  A round's cells are refined together and their
    states walked in ascending order.

    `tol` is Brent's tolerance on the root of the discretized mismatch; the
    discretization error of that root, about C h^4, is set by
    `cfg.step_count` alone (at most about 1e-10 at DEFAULT_STEP_COUNT).
    """
    require_integer("count", count, 1)
    require_integer("scan_points", scan_points, 2)
    if not (math.isfinite(_as_float("tol", tol)) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    rc = radial_coefficients(p, state)
    grid = _sweeps(rc, cfg)
    inward = None  # what the states keep of the grid, made with the first
    lo, hi = cfg.energy_bracket
    # w > 0 at both ends of the outward sweep: node counts rise with E
    rising = min(2.0 * lo + p.V0 * f for f in grid.f_ends) > 0.0
    Es = np.linspace(lo, hi, scan_points).tolist()
    values, cells, found = [], [], []  # values: NaN where the tail oscillates
    for start in range(0, scan_points, _SCAN_BLOCK):
        values += _mismatches(Es[start:start + _SCAN_BLOCK], rc, grid).tolist()
        cells += [(Es[i - 1], Es[i], values[i - 1], values[i])
                  for i in range(max(start, 1), len(values))
                  if values[i - 1] * values[i] < 0.0]  # false at a NaN
        while cells and (len(found) + len(cells) >= count
                         or len(values) == scan_points):
            take = count - len(found) if rising else len(cells)
            for e_star in _refine(cells[:take], tol, rc, grid):
                if inward is None:  # a copy, so the whole grid is freed
                    inward = (grid.r, grid.D[..., _ROW * grid.rows[0]:].copy(),
                              grid.E_ref)
                found.append(_shooting_state(e_star, (cfg, p, state), rc,
                                             grid, inward))
                found.sort(key=lambda s: (s.nodes, s))
                rising = rising and all(a < b for a, b in zip(found, found[1:]))
                floor = found[-1].nodes if rising else 0
                if len(found) >= count and found[count - 1].nodes <= floor:
                    return found[:count]
            cells = cells[take:]
    if not found:
        raise NoEigenvalueInBracket(
            f"no shooting eigenvalue in ({lo}, {hi}) for this configuration"
        )
    return found[:count]


def shoot_eigenfunction(E: float, cfg: ShootingConfig, p: PhysicalParams,
                        state: QuantumState):
    """Stitched, L2-normalized eigenfunction at energy E on the shooting grid.

    Returns (r, F) arrays on the grid's nodes, its pads left out: r rises
    strictly from r_min = R/100 to r_max = R + 40 a (see _truncation), in
    steps of the base step h near the match radius R, growing toward each
    end of the domain where U nears its asymptote there at every energy of
    the bracket (see _sweeps); the inward branch is rescaled for amplitude
    continuity at the match radius.  Raises NotBoundRegime where c0(E) <= 0
    (oscillatory tail).  Intended for overlap diagnostics at a converged
    eigenvalue.

    A ShootingState of find_eigenvalues on equal (cfg, p, state) brings its
    grid's nodes and inward coefficients and its outward amplitudes, so only
    the inward sweep is integrated; any other E (a float, or a state of
    another solve) builds both, with the same result to the bit.  Raises
    ValueError where E is NaN or past the float range.
    """
    if math.isnan(_as_float("E", E)):
        raise ValueError(f"E must be a number, got {E}")
    key = (cfg, p, state)
    solve = getattr(E, "_solve", None)
    if solve is None or solve.key != key:
        rc = radial_coefficients(p, state)
        grid = _sweeps(rc, cfg)
        inward = grid.r, grid.D[..., _ROW * grid.rows[0]:], grid.E_ref
        solve = _shooting_state(E, key, rc, grid, inward)._solve
    _, rc, (nodes, D, E_ref), (val_o, log_o) = solve
    val_i, log_i = _trajectory(E, D, E_ref, len(nodes[1]), _inward_slope(rc, E))
    # restore true relative magnitudes within each branch
    out = val_o * np.exp(log_o - log_o[-1])
    inw = (val_i * np.exp(log_i - log_i[-1]))[::-1]
    if inw[0] == 0.0:
        raise IntegrationBlowup("inward solution vanished at the match radius")
    inw = inw * (out[-1] / inw[0])
    F = np.concatenate([out, inw[1:]])
    r = np.concatenate([nodes[0], nodes[1][-2::-1]])
    # scaled exactly to a max-abs entry in [1/2, 1), so F^2 cannot overflow
    F = np.ldexp(F, -np.frexp(np.abs(F).max())[1])
    norm = math.sqrt(np.trapezoid(F * F, r))
    return r, F / norm
