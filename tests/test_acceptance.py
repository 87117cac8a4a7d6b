"""Acceptance suite: one test per shipped guarantee, one printed line each.

Each test records an "ACCEPTANCE nn name: PASS/FAIL" line and then asserts;
the conftest terminal-summary hook echoes the full scoreboard after the run
regardless of output capturing.
"""
from __future__ import annotations

import math
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from wsdirac import (
    DegenerateSuperpotential,
    NoEigenvalueInBracket,
    QuantumState,
    default_config,
    derive_coefficients,
    evaluate,
    find_eigenvalues,
    ladder,
    normalize,
    partner_potentials,
    pekeris_coefficients,
    remainder,
    shifted_A,
    shoot_eigenfunction,
    solve_energy,
    solve_susy_parameters,
)
from wsdirac.checks import (BRACKETING, ELIMINATION, GROUND_STATE, MATCHING,
                            TAYLOR_MATCH, shooting_agrees)
from wsdirac.susyqm import SusyParameters
from wsdirac.wavefunction import ode_residual, second_derivative

from conftest import (
    acceptance_lines,
    BOUND,
    BOUND_STATE,
    DEGENERATE_STATE,
    RICHARDSON,
    TABLE1,
    TABLE2,
    TABLE_ALPHAS,
    random_valid_config,
    reference_params,
)

TABLE_TOL = 5e-5  # the reference values carry 5 printed decimals


def _report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    acceptance_lines.append(line)
    print(line)
    assert ok, line


def _binding(alpha: float, ell: int, D: int) -> float:
    result = solve_energy(reference_params(alpha), QuantumState(0, ell, D))
    assert result.roots_real
    return result.e_binding


def test_01_dimension_grid_reproduction():
    t0 = time.perf_counter()
    # depth calibration anchor: the undeformed D = 3 cell must land on the
    # reference value with V0 entering the solver undoubled
    anchor = _binding(0.0, 20, 3)
    assert abs(anchor - TABLE1[3][0]) < TABLE_TOL
    worst = 0.0
    for D, row in TABLE1.items():
        for alpha, expected in zip(TABLE_ALPHAS, row):
            worst = max(worst, abs(_binding(alpha, 20, D) - expected))
    elapsed = time.perf_counter() - t0
    _report(1, "dimension-grid-reproduction",
            worst < TABLE_TOL and elapsed < 1.0,
            f"max_dev={worst:.2e}, elapsed={elapsed:.2f}s")


def test_02_angular_momentum_grid_reproduction():
    t0 = time.perf_counter()
    worst = 0.0
    for ell, row in TABLE2.items():
        for alpha, expected in zip(TABLE_ALPHAS, row):
            worst = max(worst, abs(_binding(alpha, ell, 3) - expected))
    elapsed = time.perf_counter() - t0
    _report(2, "angular-momentum-grid-reproduction",
            worst < TABLE_TOL and elapsed < 1.0,
            f"max_dev={worst:.2e}, elapsed={elapsed:.2f}s")


def test_03_monotonicity_orderings():
    # |E_b| strictly shrinks with D, with ell and with the deformation;
    # every computed value is negative, so E_b itself strictly increases
    ok = True
    for alpha in TABLE_ALPHAS:
        by_dim = [_binding(alpha, 20, D) for D in range(1, 6)]
        by_ell = [_binding(alpha, ell, 3) for ell in range(20, 25)]
        ok = ok and all(x < y < 0.0 for x, y in zip(by_dim, by_dim[1:]))
        ok = ok and all(x < y < 0.0 for x, y in zip(by_ell, by_ell[1:]))
    for D in range(1, 6):
        by_alpha = [_binding(alpha, 20, D) for alpha in TABLE_ALPHAS]
        ok = ok and all(x < y for x, y in zip(by_alpha, by_alpha[1:]))
    for ell in range(20, 25):
        by_alpha = [_binding(alpha, ell, 3) for alpha in TABLE_ALPHAS]
        ok = ok and all(x < y for x, y in zip(by_alpha, by_alpha[1:]))
    _report(3, "monotonicity-orderings", ok, "strict over both grids")


def test_04_centrifugal_surrogate_taylor_match(rng):
    t0 = time.perf_counter()
    worst = 0.0
    for w in rng.uniform(2.0, 1000.0, size=100):
        # the metric reads only R and a; PhysicalParams would warn at R/a < 5
        surrogate = SimpleNamespace(R=float(w), a=1.0)
        worst = max(worst, TAYLOR_MATCH.metric(surrogate, None, None))
    elapsed = time.perf_counter() - t0
    _report(4, TAYLOR_MATCH.name, worst < TAYLOR_MATCH.bound and elapsed < 1.0,
            f"max_dev={worst:.2e}, elapsed={elapsed:.2f}s")


def test_05_superpotential_consistency(rng):
    worst_match = worst_elim = worst_spread = worst_tele = 0.0
    for _ in range(200):
        p, state, result = random_valid_config(rng, require_ladder=True)
        E = result.e_upper
        dc = derive_coefficients(p, state)
        pk = pekeris_coefficients(p.R, p.a)
        sp = solve_susy_parameters(dc, pk, p, E)
        g = dc.gamma / p.R**2
        kap = dc.kappa_const - p.V0 * (E + p.M)
        o_term = dc.ml_quartic - (E * E - p.M * p.M)
        worst_match = max(
            worst_match,
            abs(sp.A**2 - (o_term + g * pk.c0)),
            abs(2 * sp.A * sp.B - sp.B / p.a - (kap + g * pk.c1)),
            abs(sp.B**2 + sp.B / p.a - (dc.v + g * pk.c2)),
        )
        worst_elim = max(worst_elim, ELIMINATION.metric(p, state, result))
        b1 = ladder(sp.B, 1, p.a)
        sp1 = SusyParameters(A=shifted_A(sp.frak_u, b1), B=b1,
                             frak_u=sp.frak_u)
        r = np.linspace(0.1, p.R + 10 * p.a, 40)
        _, v_plus = partner_potentials(sp, r, p.a, p.R)
        v_minus_shifted, _ = partner_potentials(sp1, r, p.a, p.R)
        diff = v_plus - v_minus_shifted
        worst_spread = max(worst_spread, float(np.max(diff) - np.min(diff)))
        for n in (1, 2, 3):
            total = sum(remainder(sp, i, p.a) for i in range(1, n + 1))
            ends = sp.A**2 - shifted_A(sp.frak_u, ladder(sp.B, n, p.a))**2
            worst_tele = max(worst_tele, abs(total - ends))
    ok = (worst_match < MATCHING.bound and worst_elim < ELIMINATION.bound
          and worst_spread < 1e-9 and worst_tele < MATCHING.bound)
    _report(5, "superpotential-consistency", ok,
            f"match={worst_match:.2e}, elim={worst_elim:.2e}, "
            f"spread={worst_spread:.2e}, telescope={worst_tele:.2e}")


def test_06_solver_route_equivalence(rng):
    worst = 0.0
    gap = lambda p, state: BRACKETING.metric(p, state, solve_energy(p, state))
    for alpha in TABLE_ALPHAS:
        for D in range(1, 6):
            worst = max(worst, gap(reference_params(alpha), QuantumState(0, 20, D)))
        for ell in range(20, 25):
            worst = max(worst, gap(reference_params(alpha), QuantumState(0, ell, 3)))
    for _ in range(100):
        p, state, result = random_valid_config(rng)
        worst = max(worst, BRACKETING.metric(p, state, result))
    _report(6, "solver-route-equivalence", worst < BRACKETING.bound,
            f"max_gap={worst:.2e}")


def test_07_ground_state_route_agreement():
    worst = 0.0
    for alpha in TABLE_ALPHAS:
        for D in range(1, 6):
            p, state = reference_params(alpha), QuantumState(0, 20, D)
            worst = max(worst, GROUND_STATE.metric(
                p, state, solve_energy(p, state)))
    _report(7, GROUND_STATE.name, worst < GROUND_STATE.bound,
            f"max_gap={worst:.2e}")


def test_08_shooting_cross_validation():
    """The shooting oracle and the closed form must agree on every cell.

    By the shooting check's rule, a root flagged normalizable (A_n < 0 <
    A_n + B_n, a bound state) must have a shooting eigenvalue within its
    bound; a root not so flagged must have none in its bracket.  The
    reference well (V0 = -10) has no decaying solution on its cells: its
    roots grow like exp(A r) with A > 0.  The attractive well of BOUND
    (V0 = +10) holds one genuine bound state and one root that falls
    monotonically from r = 0 and is not one.  At least one eigenvalue must
    match, so absences alone cannot pass.  The convergence-order half of
    the criterion is demonstrated on an attractive-well control
    configuration.
    """
    t0 = time.perf_counter()
    cells = [
        (reference_params(alpha), QuantumState(0, ell, D))
        for alpha, ell, D in ((0.0, 20, 1), (0.01, 20, 1),  # corners
                              (0.0, 20, 5), (0.01, 20, 5),
                              (0.0, 22, 3), (0.01, 24, 3))
    ] + [  # attractive counterparts of the D = 1 corners
        (replace(BOUND, alpha_prime=alpha), QuantumState(0, 20, 1))
        for alpha in (0.0, 0.01)
    ]
    failures = []
    matched = 0
    worst = 0.0
    for p, state in cells:
        result = solve_energy(p, state)
        e_star = result.e_upper
        cfg = default_config(p, (e_star - 0.5, e_star + 0.5))
        label = (f"V0={p.V0:g},a'={p.alpha_prime},ell={state.ell},"
                 f"D={state.D}")
        try:
            eigs = find_eigenvalues(cfg, p, state, count=1,
                                    scan_points=150, tol=1e-6)
            gap = abs(eigs[0] - e_star)
        except NoEigenvalueInBracket:
            gap = math.inf
        if not shooting_agrees(result.normalizable, state.n, gap):
            failures.append(f"{label}: normalizable={result.normalizable}, "
                            f"gap={gap:.1e}")
        elif result.normalizable:
            matched += 1
            worst = max(worst, gap)
    if not matched:
        failures.append("no eigenvalue matched")

    # h^4 demonstration: halving the step divides the eigenvalue error by ~16
    e_ctrl = solve_energy(RICHARDSON, BOUND_STATE).e_upper
    bracket = (e_ctrl - 0.01, e_ctrl + 0.01)

    def eig(step_count):
        cfg = default_config(RICHARDSON, bracket, step_count=step_count)
        return find_eigenvalues(cfg, RICHARDSON, BOUND_STATE, count=1,
                                scan_points=20, tol=1e-13)[0]

    reference = eig(80_000)
    err_h = abs(eig(10_000) - reference)
    ratio = err_h / abs(eig(20_000) - reference)
    # the error must dominate the bisection tolerance
    order_ok = err_h > 1e-12 and 10.0 < ratio < 24.0
    elapsed = time.perf_counter() - t0
    detail = (f"h4_ratio={ratio:.2f}, elapsed={elapsed:.1f}s, "
              f"matched={matched}, max_gap={worst:.2e}"
              + ("; " + "; ".join(failures) if failures else ""))
    _report(8, "shooting-cross-validation",
            not failures and order_ok and elapsed < 30.0, detail)


def test_09_ground_state_wavefunction():
    p, state = BOUND, BOUND_STATE
    result = solve_energy(p, state)
    E = result.e_upper
    dc = derive_coefficients(p, state)
    pk = pekeris_coefficients(p.R, p.a)
    sp = solve_susy_parameters(dc, pk, p, E)
    wf = normalize(sp.A, sp.B, p.a, p.R)

    radii = (p.R - 2 * p.a, p.R, p.R + 2 * p.a, p.R + 5 * p.a)
    worst_res = max(
        abs(ode_residual(wf, E, p, state, r)) / abs(second_derivative(wf, r))
        for r in radii
    )

    r_grid = np.linspace(0.0, wf.r_max, 10_000)
    F = evaluate(wf, r_grid)
    norm = float(np.trapezoid(F * F, r_grid))
    node_free = bool(np.all(F[:-1] > 0.0) or np.all(F[:-1] < 0.0))

    cfg = default_config(p, (E - 0.05, E + 0.05))
    eig = find_eigenvalues(cfg, p, state, count=1, scan_points=25,
                           tol=1e-11)[0]
    r_o, F_o = shoot_eigenfunction(eig, cfg, p, state)
    Fa = evaluate(wf, r_o)
    Fa = Fa / math.sqrt(np.trapezoid(Fa * Fa, r_o))
    overlap = abs(float(np.trapezoid(Fa * F_o, r_o)))

    ok = (worst_res < 1e-8 and abs(norm - 1.0) < 1e-4 and node_free
          and overlap > 0.9999)
    _report(9, "ground-state-wavefunction", ok,
            f"residual={worst_res:.2e}, norm={norm:.6f}, "
            f"node_free={node_free}, overlap={overlap:.6f}")


def test_10_degenerate_input_handling():
    p = reference_params(0.0)
    ok = True
    try:
        solve_energy(p, DEGENERATE_STATE)
        ok = False
    except DegenerateSuperpotential:
        pass
    except Exception:
        ok = False
    _report(10, "degenerate-input-handling", ok,
            "typed DegenerateSuperpotential")
