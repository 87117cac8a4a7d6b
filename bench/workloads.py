"""The four workloads: seeded inputs, one request, and its correctness checks.

Each workload is a closed loop with one caller.  Inputs come only from the
seed; the library receives the generated inputs and nothing else.  Every
call into wsdirac goes through a module attribute looked up at call time,
so the tracer's rebinding sees it.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import traceback
from dataclasses import dataclass, replace
from itertools import count
from typing import Iterator

import numpy as np

from wsdirac import cli, oracle, spectrum, wavefunction
from wsdirac.errors import WsdiracError
from wsdirac.params import PhysicalParams, QuantumState, derive_coefficients, gamma
from wsdirac.pekeris import pekeris_coefficients
from wsdirac.susyqm import solve_susy_parameters

from stats import Checked

# reference well of the paper's tables (fm^-1, fm)
REFERENCE = dict(M=10.0, a=0.5, R=7.0, V0=-10.0, E0=10.0)
TABLE_ALPHAS = [0.0, 0.001, 0.005, 0.01]
# published binding energies (fm^-1); rows D = 1..5 at ell = 20
TABLE1 = {
    1: [-20.15403, -6.29935, -1.56183, -0.77031],
    2: [-20.13403, -6.28549, -1.54786, -0.75579],
    3: [-20.11635, -6.27129, -1.53355, -0.74091],
    4: [-20.09900, -6.25677, -1.51892, -0.72570],
    5: [-20.08128, -6.24192, -1.50396, -0.71014],
}
# rows ell = 20..24 at D = 3
TABLE2 = {
    20: [-20.11635, -6.27129, -1.53355, -0.74091],
    21: [-20.08128, -6.24192, -1.50396, -0.71014],
    22: [-20.04353, -6.21126, -1.47306, -0.67802],
    23: [-20.00178, -6.17930, -1.44088, -0.64455],
    24: [-19.95546, -6.14608, -1.40742, -0.60975],
}
TABLE_TOL = 5e-5

# documented exit codes of the command line (see README)
CLI_EXIT_CODES = frozenset({0, 1, 2, 3, 4, 5})


def _rng(seed: int, workload: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, tag])


def _strata(rng: np.random.Generator, k: int, dims: int) -> np.ndarray:
    """Latin-hypercube positions in [0, 1): shape (k, dims), one point per
    stratum of every dimension, so each cycle of k requests spans each range."""
    perms = np.stack([rng.permutation(k) for _ in range(dims)], axis=1)
    return (perms + rng.random((k, dims))) / k


# ---------------------------------------------------------------- wells

@dataclass(frozen=True)
class Well:
    """An attractive well whose closed-form ground state is bound."""

    p: PhysicalParams
    state: QuantumState
    e0: float  # closed-form n = 0 energy (fm^-1)
    A: float
    B: float


# oracle wells, ranges of V0 (fm^-1), alpha' (fm^2), ell, D, R (fm);
# M = E0 = 10 fm^-1 and a = 0.5 fm throughout
GROUND_RANGES = ((6.0, 12.0), (0.0005, 0.004), (15, 24), (1, 5), (6.0, 8.0))
# a few percent around the attractive well where the oracle's ladder was
# found to skip its 2-node state (V0 = 10, alpha' = 0.0015, ell = 20, D = 3,
# R = 7): narrow, so that every request costs about the same
LADDER_RANGES = ((9.7, 10.3), (0.00145, 0.00155), (19, 21), (3, 3), (6.9, 7.1))

# the shooting oracle starts at r_min = R/100 on the solution growing from
# zero; the closed form describes the same state only where its profile is
# negligible there.  Near threshold (A + B -> 0) it is not, and the two
# routes disagree by up to ~1e-6.
R_MIN_PROFILE = 1e-2


def _log_profile(A: float, B: float, a: float, R: float, r: float) -> float:
    return A * r - a * B * math.log1p(math.exp(-(r - R) / a))


def _well_at(ranges, x: np.ndarray) -> Well | None:
    """The well at unit-cube point x, if it satisfies the input rule.

    Input rule, fixed before any oracle call: the closed-form n = 0 level
    has A < 0 < A + B (a decaying analytic ground state with one interior
    peak), and that profile at r_min is at most R_MIN_PROFILE of its peak.
    """
    (v_lo, v_hi), (a_lo, a_hi), (l_lo, l_hi), (d_lo, d_hi), (r_lo, r_hi) = ranges
    p = PhysicalParams(M=10.0, a=0.5, R=r_lo + (r_hi - r_lo) * x[4],
                       V0=v_lo + (v_hi - v_lo) * x[0], E0=10.0,
                       alpha_prime=a_lo + (a_hi - a_lo) * x[1])
    state = QuantumState(n=0, ell=l_lo + int((l_hi - l_lo + 1) * x[2]),
                         D=d_lo + int((d_hi - d_lo + 1) * x[3]))
    result = spectrum.solve_energy(p, state)
    if not result.roots_real:
        return None
    sp = solve_susy_parameters(derive_coefficients(p, state),
                               pekeris_coefficients(p.R, p.a), p, result.e_upper)
    A, B = sp.A, sp.B
    if not A < 0.0 < A + B:
        return None
    # the profile peaks where A + B f(r) = 0, i.e. at f = -A/B in (0, 1)
    r_min = p.R / 100.0
    peak = max(r_min, p.R + p.a * math.log(-B / A - 1.0))
    if (_log_profile(A, B, p.a, p.R, r_min) - _log_profile(A, B, p.a, p.R, peak)
            > math.log(R_MIN_PROFILE)):
        return None
    return Well(p=p, state=state, e0=result.e_upper, A=A, B=B)


def wells(rng: np.random.Generator, ranges, cycle: int) -> Iterator[Well]:
    """Endless stream of wells, stratified over each cycle of requests."""
    while True:
        for x in _strata(rng, cycle, len(ranges)):
            well = _well_at(ranges, x)
            tries = 0
            while well is None:
                # redraw inside the same strata, then anywhere
                tries += 1
                y = (np.floor(x * cycle) + rng.random(len(x))) / cycle \
                    if tries < 20 else rng.random(len(x))
                well = _well_at(ranges, y)
            yield well


def _nodes(F: np.ndarray) -> int:
    return int(np.sum(F[1:] * F[:-1] < 0.0))


class Workload:
    """One closed-loop caller; BENCHMARK.json says why each workload exists."""

    name: str
    unit: str
    trace_batch: int  # requests per traced pass
    min_requests = 1  # outputs of the first ones are kept for digest()
    fires: tuple[str, ...] = ()  # wrapped layers every traced pass must reach

    def inputs(self, seed: int) -> Iterator:
        raise NotImplementedError

    def quota(self, seconds: float) -> int | None:
        """Requests per run, or None for a stream bounded by `seconds`."""
        return None

    def warm_up(self, req) -> None:
        self.run(req)

    def run(self, req):
        raise NotImplementedError

    def check(self, req, out) -> Checked:
        raise NotImplementedError

    def digest(self, outputs) -> str | None:
        return None


# ---------------------------------------------------------------- analytic-grid

@dataclass(frozen=True)
class Grid:
    base: PhysicalParams
    alphas: list[float]
    dims: list[int]
    ells: list[int]
    ns: list[int]


def _reference(alpha: float) -> PhysicalParams:
    return PhysicalParams(alpha_prime=alpha, **REFERENCE)


def _grid(rng: np.random.Generator, i: int) -> Grid:
    a = rng.uniform(0.3, 0.9)
    ells = sorted(rng.choice(np.arange(1, 31), size=5, replace=False).tolist())
    if i % 2 == 0:
        ells[0] = 0  # with alpha' = 0 and D = 3: DegenerateSuperpotential
    R = a * rng.uniform(5.0, 15.0)
    if i % 4 == 1:
        # B - 1/a = 0 exactly at alpha' = 0: one LadderSingular cell at n = 1
        g = gamma(QuantumState(n=0, ell=ells[-1], D=3))
        R = a * (48.0 * g / 2.0) ** 0.25
    base = PhysicalParams(
        M=rng.uniform(2.0, 10.0), a=a, R=R,
        V0=float(rng.choice([-1.0, 1.0])) * rng.uniform(1.0, 12.0),
        E0=rng.uniform(1.0, 12.0), alpha_prime=0.0,
    )
    alphas = [0.0] + sorted(rng.uniform(0.0, 0.01, size=7).tolist())
    return Grid(base, alphas, [1, 2, 3, 4, 5], ells, [0, 1, 2, 3])


class AnalyticGrid(Workload):
    name = "analytic-grid"
    unit = "grid cell"
    trace_batch = 8
    min_requests = 32
    fires = ("spectrum.sweep", "spectrum.solve_energy",
             "susyqm.slope_parameter", "params.derive_coefficients")
    check_stride = 23

    def inputs(self, seed):
        rng = _rng(seed, self.name)
        for i in count():
            yield _grid(rng, i)

    def run(self, g: Grid):
        cells = spectrum.sweep(g.base, g.alphas, g.dims, g.ells, g.ns)
        t1 = spectrum.sweep(_reference(0.0), TABLE_ALPHAS, list(TABLE1), [20], [0])
        t2 = spectrum.sweep(_reference(0.0), TABLE_ALPHAS, [3], list(TABLE2), [0])
        return cells, t1, t2

    def check(self, g: Grid, out) -> Checked:
        cells, t1, t2 = out
        failures = []
        for table, key, ref in ((t1, "D", TABLE1), (t2, "ell", TABLE2)):
            for cell in table:
                want = ref[getattr(cell, key)][TABLE_ALPHAS.index(cell.alpha_prime)]
                if cell.error or abs(cell.result.e_binding - want) > TABLE_TOL:
                    failures.append("table-mismatch")
                    break
        for cell in cells[::self.check_stride]:
            failures += _scalar_agreement(g.base, cell)
        return Checked(failures, len(cells) + len(t1) + len(t2))

    def digest(self, outputs) -> str:
        """sha256 over every cell outcome (typed error, both roots) of the
        given outputs; bit-identical energies give the same digest."""
        h = hashlib.sha256()
        for cells, t1, t2 in outputs:
            for cell in (*cells, *t1, *t2):
                r = cell.result
                roots = (None, None) if r is None else (r.e_upper, r.e_lower)
                h.update(repr((cell.error, *roots)).encode())
        return h.hexdigest()


def _scalar_agreement(base: PhysicalParams, cell) -> list[str]:
    """The scalar route gives the sweep cell's outcome to the bit; n = 0
    cells also agree with the companion-matrix route to 1e-10."""
    p = replace(base, alpha_prime=cell.alpha_prime)
    state = QuantumState(n=cell.n, ell=cell.ell, D=cell.D)
    try:
        r = spectrum.solve_energy(p, state)
        error = None if r.roots_real else "NoRealRoot"
    except WsdiracError as exc:  # the sweep records the same typed errors
        r, error = None, type(exc).__name__
    if error != cell.error:
        return ["grid-scalar-mismatch"]
    if error is not None:
        return []
    if (r.e_upper, r.e_lower) != (cell.result.e_upper, cell.result.e_lower):
        return ["grid-scalar-mismatch"]
    # the companion-matrix route loses about eps E^2 / (root gap): skip
    # near-tangent quadratics, where that exceeds the tolerance
    if cell.n == 0 and r.e_upper - r.e_lower >= 1e-2:
        gs = spectrum.ground_state_energy(p, state)
        if not gs.roots_real or abs(gs.e_upper - r.e_upper) > 1e-10:
            return ["grid-ground-route-mismatch"]
    return []


# ---------------------------------------------------------------- oracle-ground

class OracleGround(Workload):
    name = "oracle-ground"
    unit = "eigenvalue"
    trace_batch = 3
    cycle = 10
    fires = ("oracle.find_eigenvalues", "pekeris.shape_factor",
             "oracle.shoot_eigenfunction", "wavefunction.normalize",
             "params.derive_coefficients")

    def inputs(self, seed):
        return wells(_rng(seed, self.name), GROUND_RANGES, self.cycle)

    def warm_up(self, w: Well) -> None:
        cfg = oracle.default_config(w.p, (w.e0 - 0.05, w.e0 + 0.05))
        oracle.shoot_mismatch(w.e0, cfg, w.p, w.state)

    def run(self, w: Well):
        cfg = oracle.default_config(w.p, (w.e0 - 0.05, w.e0 + 0.05))
        E = oracle.find_eigenvalues(cfg, w.p, w.state, count=1,
                                    scan_points=25, tol=1e-11)[0]
        r, F = oracle.shoot_eigenfunction(E, cfg, w.p, w.state)
        wf = wavefunction.normalize(w.A, w.B, w.p.a, w.p.R)
        return E, r, F, wf

    def check(self, w: Well, out) -> Checked:
        E, r, F, wf = out
        failures = []
        if abs(E - w.e0) > 1e-8:
            failures.append("ground-energy-mismatch")
        Fa = wavefunction.evaluate(wf, r)
        Fa = Fa / math.sqrt(np.trapezoid(Fa * Fa, r))
        if abs(float(np.trapezoid(Fa * F, r))) <= 0.9999:
            failures.append("ground-overlap")
        return Checked(failures, 1, 0 if failures else 1)


# ---------------------------------------------------------------- oracle-ladder

# The ladder scans the first 60 points of the 300-point grid over
# (E0 - 0.05, E0 + 3): same spacing and positions, so it refines the full
# scan's brackets below E0 + 0.55, which on these wells hold the four lowest
# states.  The full scan costs about five times as much per well.
LADDER_STEP = 3.05 / 299
LADDER_POINTS = 60
# RK4 steps per shooting solve: the least ShootingConfig accepts.  The
# default 20000 cost about 4 s per well, and so few wells per run left the
# median at the mercy of the host's minute-scale slowdowns; the skipped
# states show at either resolution.
LADDER_STEPS = 10_000
# bisection tolerance: the brackets are 1e-2 wide, so 1e-6 already tells
# every state and pole apart, in 14 halvings instead of the default's 24
LADDER_TOL = 1e-6
# nominal seconds per ladder request on a 2-vCPU Xeon VM; sets the quota
LADDER_REQUEST_S = 1.25


class OracleLadder(Workload):
    name = "oracle-ladder"
    unit = "eigenvalue"
    trace_batch = 2
    cycle = 8  # the quota at --seconds 20, 16 wells, is two whole cycles
    fires = ("oracle.find_eigenvalues", "pekeris.shape_factor",
             "params.derive_coefficients")

    def inputs(self, seed):
        return wells(_rng(seed, self.name), LADDER_RANGES, self.cycle)

    def quota(self, seconds):
        """A fixed number of wells, about `seconds` of requests on a 2-vCPU
        Xeon VM: skipped states are a property of each well, so attempted and
        failed must follow from the seed alone, not from the machine's speed."""
        return max(self.min_requests, round(seconds / LADDER_REQUEST_S))

    def _config(self, w: Well):
        lo = w.e0 - 0.05
        return oracle.default_config(
            w.p, (lo, lo + (LADDER_POINTS - 1) * LADDER_STEP),
            step_count=LADDER_STEPS)

    def warm_up(self, w: Well) -> None:
        oracle.shoot_mismatch(w.e0, self._config(w), w.p, w.state)

    def run(self, w: Well):
        return oracle.find_eigenvalues(self._config(w), w.p, w.state, count=4,
                                       scan_points=LADDER_POINTS, tol=LADDER_TOL)

    def check(self, w: Well, eigs) -> Checked:
        cfg = self._config(w)
        nodes = [_nodes(oracle.shoot_eigenfunction(e, cfg, w.p, w.state)[1])
                 for e in sorted(eigs)]
        ok = 0
        while ok < len(nodes) and nodes[ok] == ok:
            ok += 1
        failures = [] if ok == len(nodes) else ["ladder-node-gap"]
        return Checked(failures, len(eigs), ok)


# ---------------------------------------------------------------- cli-verify

@dataclass(frozen=True)
class Session:
    flags: tuple[str, ...]  # physical flags without --depth
    depth: float


_COMMANDS = (("table", "1"), ("table", "2"), ("verify",),
             ("wavefunction", "--samples", "1000"))


def _call_cli(argv: list[str]) -> tuple[int | None, str, str]:
    """cli.main in-process with stdout and stderr captured.

    Returns (exit code, stdout, stderr); the exit code is None and stderr
    holds the traceback when an exception escaped main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = None
            traceback.print_exc(file=err)
    return code, out.getvalue(), err.getvalue()


class CliVerify(Workload):
    name = "cli-verify"
    unit = "command"
    trace_batch = 10
    fires = ("cli.main", "spectrum.sweep", "spectrum.solve_energy",
             "spectrum.ground_state_energy", "spectrum.solve_energy_by_bracketing",
             "spectrum.energy_equation_residual", "wavefunction.normalize",
             "wavefunction.evaluate")

    def inputs(self, seed):
        rng = _rng(seed, self.name)
        while True:
            flags = (
                "--mass", "10.0", "--surface-thickness", "0.5",
                "--radius", repr(rng.uniform(6.0, 8.0)), "--e0", "10.0",
                "--alpha-prime", repr(rng.uniform(0.0005, 0.004)),
                "--ell", str(int(rng.integers(15, 25))),
                "--dim", str(int(rng.integers(1, 6))), "--n", "0",
            )
            yield Session(flags, rng.uniform(6.0, 12.0))

    def run(self, s: Session):
        results = []
        for depth in (-s.depth, s.depth):
            for cmd in _COMMANDS:
                argv = [*cmd, *s.flags, "--depth", repr(depth)]
                results.append((argv, _call_cli(argv)))
        return results

    def check(self, s: Session, results) -> Checked:
        failures = []
        for argv, (code, out, err) in results:
            if code is None or "Traceback" in err:
                failures.append("cli-traceback")
            elif code not in CLI_EXIT_CODES:
                failures.append("cli-undocumented-exit")
            elif argv[0] == "table" and not _table_matches(argv, out):
                failures.append("cli-table-mismatch")
        return Checked(failures, len(results))


def _table_matches(argv: list[str], csv: str) -> bool:
    """Every CSV row equals the library's closed form at 10 significant digits."""
    opts = dict(zip(argv[2::2], argv[3::2]))
    rows = csv.strip().splitlines()
    if len(rows) != 21:
        return False
    for row in rows[1:]:
        alpha, dim, ell, n, _, _, e_bind, *_, error = row.split(",")
        p = PhysicalParams(M=float(opts["--mass"]),
                           a=float(opts["--surface-thickness"]),
                           R=float(opts["--radius"]), V0=float(opts["--depth"]),
                           E0=float(opts["--e0"]), alpha_prime=float(alpha))
        state = QuantumState(n=int(n), ell=int(ell), D=int(dim))
        try:
            r = spectrum.solve_energy(p, state)
        except WsdiracError as exc:
            if error != type(exc).__name__:
                return False
            continue
        if not r.roots_real:
            if error != "NoRealRoot":
                return False
            continue
        if error or not math.isclose(float(e_bind), r.e_binding,
                                     rel_tol=1e-9, abs_tol=1e-12):
            return False
    return True


WORKLOADS = {w.name: w for w in (AnalyticGrid(), OracleGround(),
                                 OracleLadder(), CliVerify())}
