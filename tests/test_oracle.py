"""Shooting eigensolver: geometry, mismatch, eigenvalues, scan trajectory."""
from __future__ import annotations

import gc
import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from wsdirac import oracle
from wsdirac import (
    NoEigenvalueInBracket,
    NotBoundRegime,
    RadialCoefficients,
    ShootingConfig,
    default_config,
    derive_coefficients,
    evaluate,
    find_eigenvalues,
    normalize,
    pekeris_coefficients,
    radial_coefficients,
    shape_factor,
    shoot_eigenfunction,
    shoot_mismatch,
    solve_energy,
    solve_susy_parameters,
)

from conftest import BOUND, BOUND_STATE, RICHARDSON, reference_params


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
        A[:, 1, 0] = rc.u(shape_factor(r, rc.p.R, rc.p.a), E)
        return A

    A1 = amat(r0 + h * idx)
    A2 = amat(r0 + h * (idx + 0.5))
    A3 = amat(r0 + h * (idx + 1.0))
    K1 = A1
    K2 = A2 + (h / 2.0) * (A2 @ K1)
    K3 = A2 + (h / 2.0) * (A2 @ K2)
    K4 = A3 + h * (A3 @ K3)
    return np.eye(2) + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)


def stepwise_trajectory(rc, E, sweep, slope0):
    """Reference sweep y <- T[j] @ y, one step at a time: (values, log_scales)."""
    y = np.array([1.0, slope0])
    values, logs, log = [y[0]], [0.0], 0.0
    for T in rk4_stage_matrices(rc, E, sweep.r0, sweep.h, sweep.steps):
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
        dict(r_min=0.1, r_max=20.0, step_count=oracle.DEFAULT_STEP_COUNT - 1,
             match_radius=7.0, energy_bracket=(6.0, 8.0)),
    ])
    def test_rejects_bad_geometry(self, kwargs):
        with pytest.raises(ValueError) as exc:
            ShootingConfig(**kwargs)
        if kwargs["step_count"] < oracle.DEFAULT_STEP_COUNT:
            # the message names the floor enforced, and the floor admits the
            # default step count
            floor = oracle.DEFAULT_STEP_COUNT
            assert f"step_count must be >= {floor}," in str(exc.value)
            ShootingConfig(**{**kwargs, "step_count": floor})


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
        # no energy is evaluated twice; the root lies in cell 12 of 24, the
        # pass stops there: 14 scan points plus one refinement.  At 20000
        # steps: at the default the root lies 1.4e-11 above bound_root, a
        # grid point, so the pass goes one cell further (16 calls)
        cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05),
                             step_count=20_000)
        mismatch, calls = oracle._mismatch, {}

        def counted(E, *solve):
            calls.setdefault(E, []).append(mismatch(E, *solve))
            return calls[E][-1]

        monkeypatch.setattr(oracle, "_mismatch", counted)
        eig, = find_eigenvalues(cfg, BOUND, BOUND_STATE, count=1,
                                scan_points=25, tol=1e-11)
        assert sum(map(len, calls.values())) == len(calls) == 15
        # reference: Brent on the same scan cell, recomputing every value
        from scipy.optimize import brentq
        rc = radial_coefficients(BOUND, BOUND_STATE)
        sweeps = oracle._sweeps(rc, cfg)
        grid = np.linspace(*cfg.energy_bracket, 25)
        i = next(i for i in range(24)
                 if calls[grid[i]][0] * calls[grid[i + 1]][0] < 0.0)
        ref = brentq(lambda E: mismatch(E, rc, sweeps), grid[i], grid[i + 1],
                     xtol=1e-11)
        assert abs(eig - ref) <= 1e-11

    @pytest.mark.parametrize("offsets, tol, stops", [
        ((-0.05, -0.05 + 39 * 3.05 / 299), 1e-6, True),  # levels with 0-3 nodes
        ((0.1, 0.4), 1e-10, False),  # excited states only, each with nodes
    ])
    def test_early_stop_is_exact(self, bound_root, monkeypatch, offsets, tol,
                                 stops):
        # count=4 meets no stop on either bracket, so it is the full pass;
        # count=1 returns its first state, and stops early only where that
        # state has 0 nodes
        cfg = default_config(BOUND, tuple(bound_root + d for d in offsets))
        mismatch, calls = oracle._mismatch, []

        def counted(E, *solve):
            calls.append(E)
            return mismatch(E, *solve)

        monkeypatch.setattr(oracle, "_mismatch", counted)
        full = find_eigenvalues(cfg, BOUND, BOUND_STATE, count=4,
                                scan_points=40, tol=tol)
        full_calls = len(calls)
        first = find_eigenvalues(cfg, BOUND, BOUND_STATE, count=1,
                                 scan_points=40, tol=tol)
        assert first == full[:1]
        first_calls = len(calls) - full_calls
        assert first_calls < full_calls if stops else first_calls == full_calls

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
        sweep = oracle._sweeps(rc, cfg)[0 if outward else 1]
        steps = sweep.steps
        T = rk4_stage_matrices(rc, E, sweep.r0, sweep.h, steps)
        entries = oracle._transfer_entries(rc, E, sweep)
        assert entries.shape == (2, 2, steps)
        scale = np.abs(T).max(axis=(1, 2))
        err = np.abs(np.moveaxis(entries, -1, 0) - T).max(axis=(1, 2))
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
        nodes_scan, nodes_step = [], []
        sweeps = oracle._sweeps(rc, cfg)
        for e in eigs:
            args = (rc, e, sweeps[0], oracle._slopes(rc, e, sweeps)[0])
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

    # at these counts the odd column carried up the tree appears at different
    # levels (1025 = 2^10 + 1 carries it through every level)
    @pytest.mark.parametrize("steps", [1, 2, 3, 5, 17, 1023, 1025])
    @pytest.mark.parametrize("outward", [True, False])
    def test_tree_scan_edge_counts(self, lowest_states, steps, outward):
        cfg, eigs = lowest_states
        rc = radial_coefficients(BOUND, BOUND_STATE)
        h = (cfg.r_max - cfg.r_min) / steps  # the whole domain, to see nodes
        sweep = (oracle._sweep(rc, cfg.r_min, h, steps) if outward
                 else oracle._sweep(rc, cfg.r_max, -h, steps))
        slopes = oracle._slopes(rc, eigs[3], (sweep, sweep))
        args = (rc, eigs[3], sweep, slopes[0 if outward else 1])
        (v_scan, l_scan), (v_step, l_step) = (oracle._trajectory(*args),
                                              stepwise_trajectory(*args))
        F_scan = v_scan * np.exp(l_scan - l_scan[-1])
        F_step = v_step * np.exp(l_step - l_step[-1])
        peak = np.argmax(np.abs(F_step))  # each direction, scaled to 1 there
        diff = F_scan / F_scan[peak] - F_step / F_step[peak]
        assert np.max(np.abs(diff)) <= 1e-12
        assert oracle._count_nodes(v_scan) == oracle._count_nodes(v_step)
        # the up-sweep's top node and the last prefix are one map
        levels, scales = oracle._up_sweep(oracle._transfer_entries(*args[:3]))
        top = levels[-1][..., 0]
        last = oracle._down_sweep(levels, scales)[0][..., -1]
        diff = top / np.abs(top).max() - last / np.abs(last).max()
        assert np.max(np.abs(diff)) <= 1e-14


class TestDefaultStepCount:
    @pytest.mark.parametrize("alpha_prime, offsets, nodes", [
        (BOUND.alpha_prime, (-0.05, 0.05), 0),
        (BOUND.alpha_prime, (0.1, 0.4), 1),
        (RICHARDSON.alpha_prime, (-0.05, 0.05), 0),
        (0.01, (-0.05, 0.05), 0),
    ])
    def test_error_budget(self, alpha_prime, offsets, nodes):
        # the Richardson estimate of the discretization error at the default
        # step count is within the 1e-10 budget its rule sets, and well above
        # Brent's tolerance, so it is the discretization that is measured
        p = replace(BOUND, alpha_prime=alpha_prime)
        e0 = solve_energy(p, BOUND_STATE).e_upper
        bracket = tuple(e0 + d for d in offsets)

        def eig(step_count):
            cfg = default_config(p, bracket, step_count=step_count)
            e, = find_eigenvalues(cfg, p, BOUND_STATE, count=1,
                                  scan_points=40, tol=1e-14)
            _, F = shoot_eigenfunction(e, cfg, p, BOUND_STATE)
            assert int(np.sum(F[1:] * F[:-1] < 0.0)) == nodes
            return e

        n = oracle.DEFAULT_STEP_COUNT
        estimate = 16.0 / 15.0 * abs(eig(n) - eig(2 * n))
        assert 1e-12 < estimate <= 1e-10


# sha256 over repr of _shooting_outcomes(bound_root, 20_000), recorded from
# the oracle before its sweep grids were built once per solve
_SHOOTING_DIGEST = (
    "bd9c13bcaea603237d54ca602ab4ee1d79df86bd12702cc92e90ecb9e5c0e0d0")
# the same outcomes at the default step count, recorded when it became 6000
_SHOOTING_DIGEST_DEFAULT = (
    "90673227ae36ff26cd455fb25a6dae601b04d156b39e741a8430a5ad959523ef")


def _shooting_outcomes(bound_root, step_count):
    ref = reference_params(0.0)
    ground_cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05),
                                step_count=step_count)
    lo, step = bound_root - 0.05, 3.05 / 299
    ladder_cfg = default_config(BOUND, (lo, lo + 39 * step),
                                step_count=step_count)
    ref_cfg = default_config(ref, (-10.2, -10.0), step_count=step_count)
    return [
        [shoot_mismatch(bound_root + d, ground_cfg, BOUND, BOUND_STATE)
         for d in (-0.05, -0.01, 0.0, 1e-9, 0.01, 0.3, 1.0)],
        [shoot_mismatch(E, ref_cfg, ref, BOUND_STATE)
         for E in (-10.3, -10.116354206710737, -9.0, 0.0, 9.5)],
        find_eigenvalues(ladder_cfg, BOUND, BOUND_STATE, count=4,
                         scan_points=40, tol=1e-10),
        find_eigenvalues(ground_cfg, BOUND, BOUND_STATE, count=1,
                         scan_points=25, tol=1e-11),
    ]


def test_shooting_digest(bound_root):
    # every mismatch value and eigenvalue, locked to the bit; the eigenfunction
    # is left out (TestScanTrajectory compares it with a stepwise sweep)
    outcomes = _shooting_outcomes(bound_root, 20_000)
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == _SHOOTING_DIGEST, outcomes


def test_shooting_digest_at_default(bound_root):
    outcomes = _shooting_outcomes(bound_root, oracle.DEFAULT_STEP_COUNT)
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == _SHOOTING_DIGEST_DEFAULT, outcomes


def test_shape_evaluated_once_per_sweep(bound_root, monkeypatch):
    # the shape factor does not depend on E: a solve builds it once per
    # sweep, however many energies the scan and refinement try
    cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05))
    calls = []

    def counted(r, R, a):
        calls.append(np.size(r))
        return shape_factor(r, R, a)

    monkeypatch.setattr(oracle, "shape_factor", counted)
    counts = {}
    for scan_points in (25, 40):
        calls.clear()
        find_eigenvalues(cfg, BOUND, BOUND_STATE, count=1,
                         scan_points=scan_points, tol=1e-11)
        counts[scan_points] = len(calls)
    assert counts[25] == counts[40] <= 3  # two sweeps and the r_min slope


def test_solves_leave_no_coefficients_alive(bound_root):
    # nothing of a solve may live on in a reference cycle (scipy's brentq
    # wrapper is one): with the collector off, refcounts alone must free it
    cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05))

    def alive():
        return sum(isinstance(o, RadialCoefficients)
                   for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = alive()
        for _ in range(10):
            find_eigenvalues(cfg, BOUND, BOUND_STATE, count=1, scan_points=5)
        after = alive()
    finally:
        gc.enable()
    assert after == before
