"""Shooting eigensolver: geometry, mismatch, eigenvalues, convergence order."""
from __future__ import annotations

import math

import numpy as np
import pytest

from wsdirac import oracle
from wsdirac import (
    NoEigenvalueInBracket,
    NotBoundRegime,
    ShootingConfig,
    default_config,
    derive_coefficients,
    evaluate,
    find_eigenvalues,
    normalize,
    pekeris_coefficients,
    radial_coefficients,
    shoot_eigenfunction,
    shoot_mismatch,
    solve_energy,
    solve_susy_parameters,
)

from conftest import BOUND, BOUND_STATE, RICHARDSON


@pytest.fixture(scope="module")
def bound_root():
    return solve_energy(BOUND, BOUND_STATE).e_upper


def rk4_stage_matrices(rc, E, r0, h, steps):
    """Reference RK4 step maps, shape (steps, 2, 2), from the stages K1..K4.

    With A(r) = [[0, 1], [U(r; E), 0]] the step from y to y + h/6 (k1 + 2 k2
    + 2 k3 + k4) is linear in y; composing its stages as 2x2 matrices gives
    the map.
    """
    idx = np.arange(steps, dtype=float)

    def amat(r):
        A = np.zeros((steps, 2, 2))
        A[:, 0, 1] = 1.0
        A[:, 1, 0] = oracle._u(rc, r, E)
        return A

    A1 = amat(r0 + h * idx)
    A2 = amat(r0 + h * (idx + 0.5))
    A3 = amat(r0 + h * (idx + 1.0))
    K1 = A1
    K2 = A2 + (h / 2.0) * (A2 @ K1)
    K3 = A2 + (h / 2.0) * (A2 @ K2)
    K4 = A3 + h * (A3 @ K3)
    return np.eye(2) + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)


def stepwise_trajectory(rc, E, r0, h, steps, slope0):
    """Reference sweep y <- T[j] @ y, one step at a time: (values, log_scales)."""
    y = np.array([1.0, slope0])
    values, logs, log = [y[0]], [0.0], 0.0
    for T in rk4_stage_matrices(rc, E, r0, h, steps):
        y = T @ y
        big = np.abs(y).max()
        if big > 1e100:
            y, log = y / big, log + math.log(big)
        values.append(y[0])
        logs.append(log)
    return np.array(values), np.array(logs)


class TestShootingConfig:
    def test_default_geometry(self):
        cfg = default_config(BOUND, (6.0, 8.0))
        assert cfg.r_min == pytest.approx(BOUND.R / 100.0)
        assert cfg.r_max == pytest.approx(BOUND.R + 40.0 * BOUND.a)
        assert cfg.match_radius == BOUND.R

    @pytest.mark.parametrize("kwargs", [
        dict(r_min=0.0, r_max=20.0, step_count=20000, match_radius=7.0,
             energy_bracket=(6.0, 8.0)),
        dict(r_min=8.0, r_max=20.0, step_count=20000, match_radius=7.0,
             energy_bracket=(6.0, 8.0)),
        dict(r_min=0.1, r_max=20.0, step_count=100, match_radius=7.0,
             energy_bracket=(6.0, 8.0)),
        dict(r_min=0.1, r_max=20.0, step_count=20000, match_radius=7.0,
             energy_bracket=(8.0, 6.0)),
    ])
    def test_rejects_bad_geometry(self, kwargs):
        with pytest.raises(ValueError):
            ShootingConfig(**kwargs)


class TestMismatch:
    def test_sign_change_at_eigenvalue(self, bound_root):
        cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05))
        below = shoot_mismatch(bound_root - 0.01, cfg, BOUND, BOUND_STATE)
        above = shoot_mismatch(bound_root + 0.01, cfg, BOUND, BOUND_STATE)
        assert below * above < 0.0

    def test_oscillatory_tail_rejected(self):
        cfg = default_config(BOUND, (6.0, 8.0))
        # far above the well the asymptotic coefficient goes negative
        dc = derive_coefficients(BOUND, BOUND_STATE)
        pk = pekeris_coefficients(BOUND.R, BOUND.a)
        e_edge = math.sqrt(BOUND.M**2 + dc.ml_quartic
                           + dc.gamma * pk.c0 / BOUND.R**2)
        with pytest.raises(NotBoundRegime):
            shoot_mismatch(e_edge + 1.0, cfg, BOUND, BOUND_STATE)


class TestFindEigenvalues:
    def test_matches_analytic_ground_state(self, bound_root):
        cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05))
        eigs = find_eigenvalues(cfg, BOUND, BOUND_STATE, count=1,
                                scan_points=25, tol=1e-11)
        assert len(eigs) == 1
        assert eigs[0] == pytest.approx(bound_root, abs=1e-8)

    def test_finds_first_excited_state_above(self, bound_root):
        cfg = default_config(BOUND, (bound_root + 0.1, bound_root + 0.4))
        eigs = find_eigenvalues(cfg, BOUND, BOUND_STATE, count=1,
                                scan_points=40, tol=1e-10)
        assert len(eigs) == 1
        assert eigs[0] > bound_root

    def test_no_state_skipped_between_close_levels(self, bound_root):
        # the first 40 points of the 300-point grid over (E0 - 0.05, E0 + 3)
        # hold the four lowest levels; the 2-node state at 7.515806 lies
        # within 0.03 of both its neighbours and must not be lost
        lo, step = bound_root - 0.05, 3.05 / 299
        cfg = default_config(BOUND, (lo, lo + 39 * step))
        eigs = find_eigenvalues(cfg, BOUND, BOUND_STATE, count=4,
                                scan_points=40, tol=1e-6)
        nodes = []
        for e in eigs:
            _, F = shoot_eigenfunction(e, cfg, BOUND, BOUND_STATE)
            nodes.append(int(np.sum(F[1:] * F[:-1] < 0.0)))
        assert nodes == [0, 1, 2, 3]
        assert eigs[2] == pytest.approx(7.515806, abs=1e-5)

    def test_refinement_reuses_scan_values(self, bound_root, monkeypatch):
        # brentq starts at both bracket ends, which the scan already holds:
        # no energy is evaluated twice, 25 scan points plus one refinement
        cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05))
        mismatch, calls = oracle._mismatch, {}

        def counted(rc, E, cfg):
            calls.setdefault(E, []).append(mismatch(rc, E, cfg))
            return calls[E][-1]

        monkeypatch.setattr(oracle, "_mismatch", counted)
        eig, = find_eigenvalues(cfg, BOUND, BOUND_STATE, count=1,
                                scan_points=25, tol=1e-11)
        assert sum(map(len, calls.values())) == len(calls) == 26
        # reference: Brent on the same scan cell, recomputing every value
        from scipy.optimize import brentq
        rc = radial_coefficients(BOUND, BOUND_STATE)
        grid = np.linspace(*cfg.energy_bracket, 25)
        i = next(i for i in range(24)
                 if calls[grid[i]][0] * calls[grid[i + 1]][0] < 0.0)
        ref = brentq(lambda E: mismatch(rc, E, cfg), grid[i], grid[i + 1],
                     xtol=1e-11)
        assert abs(eig - ref) <= 1e-11

    def test_empty_bracket_raises(self, bound_root):
        cfg = default_config(BOUND, (bound_root - 0.04, bound_root - 0.02))
        with pytest.raises(NoEigenvalueInBracket):
            find_eigenvalues(cfg, BOUND, BOUND_STATE, count=1, scan_points=15)

    def test_rejects_nonpositive_count(self, bound_root):
        cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05))
        with pytest.raises(ValueError):
            find_eigenvalues(cfg, BOUND, BOUND_STATE, count=0)


class TestTransferEntries:
    @pytest.mark.parametrize("offset", [-0.05, 0.0, 0.3])
    @pytest.mark.parametrize("outward", [True, False])
    def test_closed_form_matches_stage_composition(self, bound_root, offset,
                                                   outward):
        E = bound_root + offset
        cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05))
        rc = radial_coefficients(BOUND, BOUND_STATE)
        h, i_match = oracle._match_geometry(cfg)
        r0, h, steps = ((cfg.r_min, h, i_match) if outward else
                        (cfg.r_max, -h, cfg.step_count - i_match))
        T = rk4_stage_matrices(rc, E, r0, h, steps)
        entries = oracle._transfer_entries(rc, E, r0, h, steps)
        assert entries.shape == (4, steps)
        scale = np.abs(T).max(axis=(1, 2))
        err = np.abs(entries.T.reshape(steps, 2, 2) - T).max(axis=(1, 2))
        assert np.max(err / scale) <= 1e-14


class TestEigenfunction:
    def test_normalized_and_localized(self, bound_root):
        cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05))
        eig = find_eigenvalues(cfg, BOUND, BOUND_STATE, count=1,
                               scan_points=25, tol=1e-11)[0]
        r, F = shoot_eigenfunction(eig, cfg, BOUND, BOUND_STATE)
        assert r.shape == F.shape == (cfg.step_count + 1,)
        assert np.trapezoid(F * F, r) == pytest.approx(1.0, rel=1e-10)
        assert abs(F[0]) < 1e-4 and abs(F[-1]) < 1e-4

    def test_overlap_with_analytic_profile(self, bound_root):
        cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05))
        eig = find_eigenvalues(cfg, BOUND, BOUND_STATE, count=1,
                               scan_points=25, tol=1e-11)[0]
        r, F = shoot_eigenfunction(eig, cfg, BOUND, BOUND_STATE)
        dc = derive_coefficients(BOUND, BOUND_STATE)
        pk = pekeris_coefficients(BOUND.R, BOUND.a)
        sp = solve_susy_parameters(dc, pk, BOUND, bound_root)
        wf = normalize(sp.A, sp.B, BOUND.a, BOUND.R)
        Fa = evaluate(wf, r)
        Fa = Fa / math.sqrt(np.trapezoid(Fa * Fa, r))
        assert abs(np.trapezoid(Fa * F, r)) > 0.9999


class TestConvergenceOrder:
    def test_eigenvalue_error_scales_as_h4(self):
        # deformation chosen so the discretization error is resolvable above
        # round-off; halving h must cut the error by about 2^4
        e_star = solve_energy(RICHARDSON, BOUND_STATE).e_upper
        bracket = (e_star - 0.01, e_star + 0.01)

        def eig(step_count):
            cfg = default_config(RICHARDSON, bracket, step_count=step_count)
            return find_eigenvalues(cfg, RICHARDSON, BOUND_STATE, count=1,
                                    scan_points=20, tol=1e-13)[0]

        reference = eig(80_000)
        err_h = abs(eig(10_000) - reference)
        err_h2 = abs(eig(20_000) - reference)
        assert err_h > 1e-12  # error must dominate the bisection tolerance
        ratio = err_h / err_h2
        assert 10.0 < ratio < 24.0


class TestScanTrajectory:
    @pytest.fixture(scope="class")
    def lowest_states(self, bound_root):
        lo, step = bound_root - 0.05, 3.05 / 299
        cfg = default_config(BOUND, (lo, lo + 39 * step))
        eigs = find_eigenvalues(cfg, BOUND, BOUND_STATE, count=4,
                                scan_points=40, tol=1e-10)
        assert eigs == pytest.approx(
            [7.215478, 7.474239, 7.515806, 7.544646], abs=1e-6)
        return cfg, eigs

    def test_matches_stepwise_sweep(self, lowest_states, monkeypatch):
        cfg, eigs = lowest_states
        rc = radial_coefficients(BOUND, BOUND_STATE)
        h, i_match = oracle._match_geometry(cfg)
        nodes_scan, nodes_step = [], []
        for e in eigs:
            slope = math.sqrt(max(oracle._u(rc, cfg.r_min, e), 0.0))
            args = (rc, e, cfg.r_min, h, i_match, slope)
            nodes_scan.append(oracle._count_nodes(oracle._trajectory(*args)[0]))
            nodes_step.append(oracle._count_nodes(stepwise_trajectory(*args)[0]))
        assert nodes_scan == nodes_step == [0, 1, 2, 3]

        _, F_scan = zip(*(shoot_eigenfunction(e, cfg, BOUND, BOUND_STATE)
                          for e in eigs))
        monkeypatch.setattr(oracle, "_trajectory", stepwise_trajectory)
        _, F_step = zip(*(shoot_eigenfunction(e, cfg, BOUND, BOUND_STATE)
                          for e in eigs))
        for a, b in zip(F_scan, F_step):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
