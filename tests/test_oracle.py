"""Shooting eigensolver: geometry, mismatch, eigenvalues, scan trajectory."""
from __future__ import annotations

import contextlib
import gc
import hashlib
import inspect
import json
import math
import pickle
import sys
from dataclasses import replace

import numpy as np
import pytest

from wsdirac import oracle
from wsdirac import (
    IntegrationBlowup,
    NoEigenvalueInBracket,
    NotBoundRegime,
    PhysicalParams,
    QuantumState,
    RadialCoefficients,
    RefinementNotConverged,
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


def rk4_stage_matrices(rc, E, nodes):
    """Reference RK4 step maps between the nodes, shape (steps, 2, 2), from
    the stages K1..K4.

    With A(r) = [[0, 1], [U(r; E), 0]] the step from y to y + h/6 (k1 + 2 k2
    + 2 k3 + k4) is linear in y; composing its stages as 2x2 matrices gives
    the map.  Each step has its own h, so a graded grid is checked as a
    uniform one is.
    """
    h = np.diff(nodes)

    def amat(r):
        A = np.zeros((len(h), 2, 2))
        A[:, 0, 1] = 1.0
        A[:, 1, 0] = rc.u(shape_factor(r, rc.p.R, rc.p.a), E)
        return A

    A1 = amat(nodes[:-1])
    A2 = amat(nodes[:-1] + h / 2.0)
    A3 = amat(nodes[1:])
    h = h[:, None, None]
    K1 = A1
    K2 = A2 + (h / 2.0) * (A2 @ K1)
    K3 = A2 + (h / 2.0) * (A2 @ K2)
    K4 = A3 + h * (A3 @ K3)
    return np.eye(2) + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)


def stepwise_trajectory(rc, E, grid, d, slope0):
    """Reference sweep of the grid's direction d, y <- T[j] @ y, one step at
    a time, y scaled by a power of two past 1e100: (mantissas, exponents),
    F = mantissas * 2^exponents."""
    y = np.array([1.0, slope0])
    values, exponents, e = [y[0]], [0], 0
    for T in rk4_stage_matrices(rc, E, grid.r[d]):
        y = T @ y
        big = np.abs(y).max()
        if big > 1e100:
            k = math.frexp(big)[1]
            y, e = np.ldexp(y, -k), e + k
        values.append(y[0])
        exponents.append(e)
    return np.array(values), np.array(exponents)


def direction_D(grid, d):
    """The coefficients of the grid's direction d (0 outward, 1 inward), its
    rows' steps."""
    start, end = (oracle._ROW * sum(grid.rows[:i]) for i in (d, d + 1))
    return grid.D[..., start:end]


def trajectory(rc, E, grid, d, slope0):
    """oracle._trajectory of the grid's direction d (0 outward, 1 inward),
    from (1, slope0), called as stepwise_trajectory is."""
    return oracle._trajectory(E, grid, d, slope0)


def assert_matches_stepwise(args) -> int:
    """trajectory(*args) against stepwise_trajectory(*args): the same node
    count, returned, and amplitudes within 1e-12 once each is scaled to 1 at
    the stepwise sweep's peak."""
    (v_scan, e_scan), (v_step, e_step) = (trajectory(*args),
                                          stepwise_trajectory(*args))
    F_scan = np.ldexp(v_scan, e_scan - e_scan[-1])
    F_step = np.ldexp(v_step, e_step - e_step[-1])
    peak = np.argmax(np.abs(F_step))
    diff = F_scan / F_scan[peak] - F_step / F_step[peak]
    assert np.max(np.abs(diff)) <= 1e-12
    assert oracle._count_nodes(v_scan) == oracle._count_nodes(v_step)
    return oracle._count_nodes(v_scan)


def assert_same_bytes(a, b):
    """Two (r, F) pairs of shoot_eigenfunction are equal byte for byte."""
    for x, y in zip(a, b, strict=True):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()


class TestShootingConfig:
    def test_default_geometry(self):
        # the config holds the caller's two values; the domain is the well's
        cfg = default_config(BOUND, (6.0, 8.0))
        assert cfg == ShootingConfig(energy_bracket=(6.0, 8.0),
                                     step_count=oracle.DEFAULT_STEP_COUNT)
        r_min, r_max, r_match = oracle._truncation(BOUND)
        assert r_min == pytest.approx(BOUND.R / 100.0)
        assert r_max == pytest.approx(BOUND.R + 40.0 * BOUND.a)
        assert r_match == BOUND.R

    @pytest.mark.parametrize("kwargs", [
        dict(step_count=100, energy_bracket=(6.0, 8.0)),
        dict(step_count=20000, energy_bracket=(8.0, 6.0)),
        dict(step_count=oracle.DEFAULT_STEP_COUNT - 1,
             energy_bracket=(6.0, 8.0)),
        # a non-finite bracket and a non-integral step count, each named
        dict(step_count=20000, energy_bracket=(-math.inf, 8.0)),
        dict(step_count=20000, energy_bracket=(6.0, math.inf)),
        dict(step_count=20000, energy_bracket=(math.nan, 8.0)),
        dict(step_count=6000.5, energy_bracket=(6.0, 8.0)),
    ])
    def test_rejects_bad_geometry(self, kwargs):
        with pytest.raises(ValueError) as exc:
            ShootingConfig(**kwargs)
        bad = [name for name, value in kwargs.items()
               if not np.isfinite(value).all()]
        if kwargs["step_count"] != int(kwargs["step_count"]):
            bad.append("step_count")
        for name in bad:
            assert f"{name} must be" in str(exc.value)
        if kwargs["step_count"] < oracle.DEFAULT_STEP_COUNT:
            # the message names the floor enforced, and the floor admits the
            # default step count
            floor = oracle.DEFAULT_STEP_COUNT
            assert f"step_count must be >= {floor}," in str(exc.value)
            ShootingConfig(**{**kwargs, "step_count": floor})

    def test_rejects_int_past_float_range(self):
        # math.isfinite raised a bare OverflowError on such an int
        with pytest.raises(ValueError, match="^energy_bracket must lie in "
                                             "the float range$"):
            ShootingConfig((7.0, 10**400), 6000)

    @pytest.mark.parametrize("bracket", [(6.0, 7.0, 8.0), (6.0,), (), 7.0])
    def test_rejects_bracket_not_a_pair(self, bracket):
        # three values, one, none and a bare float: one ValueError naming the
        # field, not Python's unpacking errors
        with pytest.raises(ValueError, match="^energy_bracket must be a pair "
                                             "of numbers, got "):
            ShootingConfig(bracket, 6000)

    def test_accepts_numpy_integer_step_count(self):
        cfg = ShootingConfig(energy_bracket=(6.0, 8.0),
                             step_count=np.int64(7000))
        assert cfg.step_count == 7000

    @pytest.mark.parametrize("step_count", [np.uint16(65535), np.int16(32767)])
    def test_stores_the_step_count_as_int(self, bound_root, step_count):
        # a numpy step count kept as given wraps in step_count + 1: to 0
        # nodes at uint16, to -32768 at int16, so no solve could run
        cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05),
                             step_count=step_count)
        assert type(cfg.step_count) is int and cfg.step_count == step_count
        out, inw = oracle._sweeps(radial_coefficients(BOUND, BOUND_STATE),
                                  cfg).r
        r_min, r_max, _ = oracle._truncation(BOUND)
        assert out[0] == r_min and inw[0] == r_max

    def test_stores_the_bracket_as_floats(self, bound_root):
        # a numpy-array bracket is stored as a tuple of floats, so the solve
        # keys of equal configs compare as equal
        bracket = np.array([bound_root - 0.05, bound_root + 0.05])
        cfg = ShootingConfig(bracket, oracle.DEFAULT_STEP_COUNT)
        assert cfg.energy_bracket == tuple(bracket.tolist())
        assert all(type(E) is float for E in cfg.energy_bracket)
        s, = find_eigenvalues(cfg, BOUND, BOUND_STATE, count=1, scan_points=25)
        same = ShootingConfig(bracket.copy(), oracle.DEFAULT_STEP_COUNT)
        assert_same_bytes(shoot_eigenfunction(s, same, BOUND, BOUND_STATE),
                          shoot_eigenfunction(float(s), cfg, BOUND, BOUND_STATE))

    @pytest.mark.parametrize("a", [1e307, 1e-300])
    def test_rejects_unrepresentable_domain(self, a, monkeypatch):
        # R + 40 a overflows to inf, or rounds to R itself: default_config
        # rejects the well before any solve
        p = PhysicalParams(M=10.0, a=a, R=1e308, V0=10.0, E0=10.0,
                           alpha_prime=0.0)

        def no_solve(*args):
            raise AssertionError("solved before checking the domain")

        monkeypatch.setattr(oracle, "radial_coefficients", no_solve)
        with pytest.raises(ValueError, match="r_max"):
            default_config(p, (6.0, 8.0))

    def test_grid_follows_the_well(self, bound_root):
        # a config carries no domain: solved on another well, the sweeps
        # span that well's truncation
        cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05))
        wide = replace(BOUND, R=2.0 * BOUND.R)
        rc = radial_coefficients(wide, BOUND_STATE)
        out, inw = oracle._sweeps(rc, cfg).r
        r_min, r_max, r_match = oracle._truncation(wide)
        assert out[0] == r_min and inw[0] == r_max
        h = (r_max - r_min) / cfg.step_count
        assert abs(out[-1] - r_match) <= h / 2.0


class TestMismatch:
    def test_sign_change_at_eigenvalue(self, bound_root):
        cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05))
        below = shoot_mismatch(bound_root - 0.01, cfg, BOUND, BOUND_STATE)
        above = shoot_mismatch(bound_root + 0.01, cfg, BOUND, BOUND_STATE)
        assert below * above < 0.0

    @pytest.mark.parametrize("solve", [shoot_mismatch, shoot_eigenfunction])
    def test_rejects_nan_energy(self, bound_root, solve, monkeypatch):
        # NaN passed the slope check (c0(nan) <= 0 is false) and overflowed
        # the pass; it is named before any solve.  An infinite E has an
        # oscillatory tail, or none that decays, either way NotBoundRegime
        cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05))
        for E in (-math.inf, math.inf):
            with pytest.raises(NotBoundRegime):
                solve(E, cfg, BOUND, BOUND_STATE)

        def no_solve(*args):
            raise AssertionError("solved before checking E")

        monkeypatch.setattr(oracle, "radial_coefficients", no_solve)
        with pytest.raises(ValueError, match="E must be a number, got nan"):
            solve(math.nan, cfg, BOUND, BOUND_STATE)

    @pytest.mark.parametrize("solve", [shoot_mismatch, shoot_eigenfunction])
    def test_rejects_int_past_float_range(self, bound_root, solve, monkeypatch):
        # math.isnan raised a bare OverflowError on such an int; it is named
        # before any solve
        cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05))

        def no_solve(*args):
            raise AssertionError("solved before checking E")

        monkeypatch.setattr(oracle, "radial_coefficients", no_solve)
        with pytest.raises(ValueError, match="^E must lie in the float range$"):
            solve(10**400, cfg, BOUND, BOUND_STATE)

    def test_oscillatory_tail_rejected(self):
        cfg = default_config(BOUND, (6.0, 8.0))
        # far above the well the asymptotic coefficient goes negative
        dc = derive_coefficients(BOUND, BOUND_STATE)
        pk = pekeris_coefficients(BOUND.R, BOUND.a)
        e_edge = math.sqrt(BOUND.M**2 + dc.ml_quartic
                           + dc.gamma * pk.c0 / BOUND.R**2)
        with pytest.raises(NotBoundRegime):
            shoot_mismatch(e_edge + 1.0, cfg, BOUND, BOUND_STATE)

    @pytest.mark.parametrize("step_count", [oracle.DEFAULT_STEP_COUNT, 20_000])
    def test_grid_holds_the_energy(self, bound_root, step_count):
        # an energy outside the bracket gets the grid of the bracket widened
        # to hold it, which is uniform inside R at bound_root + 1.0 (U_in < 0
        # there); the ground bracket's own grid, graded inside R, was off by
        # 1.8e-3 at 6000 steps.  The uniform grid it is checked against
        # takes its coefficients at the widened bracket's midpoint too.  An
        # energy inside keeps the bracket's grid
        lo, hi = bound_root - 0.05, bound_root + 0.05
        cfg = default_config(BOUND, (lo, hi), step_count=step_count)
        rc = radial_coefficients(BOUND, BOUND_STATE)
        for E in (bound_root + 0.3, bound_root + 1.0):
            wide = default_config(BOUND, (lo, E), step_count=step_count)
            uniform = uniform_sweeps(rc, wide)
            m = shoot_mismatch(E, cfg, BOUND, BOUND_STATE)
            assert m == oracle._mismatches([E], oracle._sweeps(rc, wide))[0]
            assert abs(m - oracle._mismatches([E], uniform)[0]) <= 1e-15
        for E in (lo, bound_root, hi):
            assert shoot_mismatch(E, cfg, BOUND, BOUND_STATE) == (
                oracle._mismatches([E], oracle._sweeps(rc, cfg))[0])


class TestMismatches:
    def test_block_matches_single_calls(self, bound_root):
        # one pass over a block, an energy above the continuum edge among
        # them, gives each energy's shoot_mismatch to the bit, and NaN
        # exactly where that raises NotBoundRegime; the bracket holds every
        # bound energy of the block, so shoot_mismatch builds the same grid
        cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 1.0))
        rc = radial_coefficients(BOUND, BOUND_STATE)
        e_edge = math.sqrt(BOUND.M**2 + rc.c0_const)  # c0(e_edge) = 0
        Es = [bound_root - 0.05, e_edge + 1.0, bound_root, 1e-9 + bound_root,
              bound_root + 0.3, e_edge + 1e-6, bound_root + 1.0]
        block = oracle._mismatches(Es, oracle._sweeps(rc, cfg)).tolist()
        unbound = []
        for E, m in zip(Es, block):
            try:
                assert m == shoot_mismatch(E, cfg, BOUND, BOUND_STATE)
            except NotBoundRegime:
                assert math.isnan(m)
                unbound.append(E)
        assert unbound == [e_edge + 1.0, e_edge + 1e-6]
        out = oracle._mismatches(unbound, oracle._sweeps(rc, cfg))
        assert out.shape == (2,) and np.isnan(out).all()

    @pytest.mark.parametrize("outward", [True, False])
    def test_transfer_entries_over_energies(self, bound_root, outward):
        # the energy axis goes before the step axis; each energy's slice is
        # the scalar call's array to the bit
        cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05))
        rc = radial_coefficients(BOUND, BOUND_STATE)
        grid = oracle._sweeps(rc, cfg)
        D = direction_D(grid, 0 if outward else 1)
        Es = [bound_root - 0.05, bound_root, bound_root + 0.3]
        T = oracle._transfer_entries(np.array(Es), D, grid.E_ref)
        assert T.shape == (2, 2, len(Es), D.shape[-1])
        for i, E in enumerate(Es):
            single = oracle._transfer_entries(E, D, grid.E_ref)
            assert T[:, :, i].tobytes() == single.tobytes()


def unpadded(rc, r, E_ref):
    """The coefficients at E_ref of the steps between the nodes r alone, from
    the shape at their nodes and midpoints, as oracle._transfer_entries
    reads them."""
    h = np.diff(r)
    x = np.empty(2 * len(h) + 1)
    x[0::2], x[1::2] = r, r[:-1] + h / 2.0
    f = shape_factor(x, rc.p.R, rc.p.a)
    return oracle._coefficients(rc, f, h, E_ref)


def direction_tops(rc, Es, grid):
    """Each direction's top through its own pairwise tree over its own
    steps, without pads, at least one level, each renormalized: a level's
    products M[..., 2i+1] @ M[..., 2i] by oracle._compose, an odd last
    carried alone.  The reference for the pass over the grid, shape (2, 2,
    len(Es), 2)."""
    tops = []
    for r in grid.r:
        M = oracle._transfer_entries(Es, unpadded(rc, r, grid.E_ref),
                                     grid.E_ref)
        for _ in range(max(1, (M.shape[-1] - 1).bit_length())):
            half = M.shape[-1] // 2
            out = M[..., ::2].copy()  # its last column the odd last, if any
            oracle._compose(M[..., 1::2], M[..., :2 * half:2], out[..., :half],
                            np.empty_like(out[..., :half]))
            oracle._renormalize(out, np.empty_like(out), np.empty(out.shape[2:]))
            M = out
        tops.append(M[..., 0])
    return np.stack(tops, axis=-1)


ROW = oracle._ROW


class TestFusedPass:
    def assert_tops_match(self, rc, Es, grid):
        fused = oracle._tops(Es, grid)
        assert fused.shape == (2, 2, len(Es), 2)
        assert fused.tobytes() == direction_tops(rc, Es, grid).tobytes()
        # the factors are powers of two, so renormalizing every level
        # changes no bit, and each top's max-abs entry lies in [1/2, 1)
        every_level = oracle._tops(Es, grid._replace(every=1))
        assert every_level.tobytes() == fused.tobytes()
        big = np.abs(fused).max(axis=(0, 1))
        assert np.all((0.5 <= big) & (big < 1.0))

    def test_default_sweeps(self, bound_root):
        # BOUND's sweeps at the default step count, a block holding two
        # energies above the continuum edge, whose mismatch is NaN: the
        # pass does not depend on the tail's slope
        cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05))
        rc = radial_coefficients(BOUND, BOUND_STATE)
        e_edge = math.sqrt(BOUND.M**2 + rc.c0_const)  # c0(e_edge) = 0
        grid = oracle._sweeps(rc, cfg)
        assert grid.D.shape[-1] == 1408 and grid.rows == (6, 5)
        Es = [bound_root - 0.05, e_edge + 1.0, bound_root, e_edge + 1e-6]
        self.assert_tops_match(rc, Es, grid)
        assert np.isnan(oracle._mismatches(Es, grid)[[1, 3]]).all()
        self.assert_tops_match(rc, [bound_root], grid)

    def test_inward_longer_than_outward(self, bound_root):
        # a bracket that reaches the continuum keeps the uniform tail, so
        # the inward sweep has more rows than the outward one
        rc = radial_coefficients(BOUND, BOUND_STATE)
        e_edge = math.sqrt(BOUND.M**2 + rc.c0_const)
        grid = oracle._sweeps(rc, default_config(BOUND, (bound_root, e_edge)))
        assert grid.rows[1] > grid.rows[0]
        self.assert_tops_match(rc, [bound_root, bound_root + 0.3], grid)

    def test_ladder_bracket(self, bound_root):
        # oracle-ladder's bracket, 60 points at the 300-point grid's spacing,
        # at its 10000 steps: 16 energies across it
        lo, step = bound_root - 0.05, 3.05 / 299
        cfg = default_config(BOUND, (lo, lo + 59 * step), step_count=10_000)
        rc = radial_coefficients(BOUND, BOUND_STATE)
        grid = oracle._sweeps(rc, cfg)
        self.assert_tops_match(rc, np.linspace(*cfg.energy_bracket, 16).tolist(),
                               grid)

    @staticmethod
    def counted_pass(monkeypatch, Es, grid):
        """_tops(Es, grid), the attempts it made (its calls of
        _transfer_entries) and its calls of _renormalize."""
        calls = []
        for name in ("_transfer_entries", "_renormalize"):
            monkeypatch.setattr(oracle, name, lambda *args, fn=getattr(oracle, name),
                                name=name: calls.append(name) or fn(*args))
        tops = oracle._tops(Es, grid)
        monkeypatch.undo()
        return tops, calls.count("_transfer_entries"), calls.count("_renormalize")

    @pytest.mark.parametrize("k", [1, 16])
    def test_shallow_pass_renormalizes_twice(self, bound_root, monkeypatch, k):
        # BOUND's leaves stay below L = 8.7 over the bracket, so 7 levels stay
        # in range: a pass renormalizes at the rows' products and at the top
        # alone, in one attempt
        cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05))
        rc = radial_coefficients(BOUND, BOUND_STATE)
        grid = oracle._sweeps(rc, cfg)
        assert grid.every == 7
        Es = np.linspace(*cfg.energy_bracket, k).tolist()
        with np.errstate(all="raise"):
            tops, attempts, renormalized = self.counted_pass(monkeypatch, Es, grid)
        assert (attempts, renormalized) == (1, 2)
        assert tops.tobytes() == direction_tops(rc, Es, grid).tobytes()

    # BOUND's geometry from depth 10 to 1e20: the transfer matrices' entries
    # reach about 2e72 at 1e20, where the pass renormalizes every 2 levels.
    # Over the bracket, ends included, the pass stays in range, raising
    # nothing, in one attempt, with the bits of a pass renormalizing every
    # level
    @pytest.mark.parametrize("depth, every", [(10, 7), (1e4, 5), (1e8, 3),
                                              (1e13, 2), (1e20, 2)])
    def test_pass_finishes_in_one_attempt(self, monkeypatch, depth, every):
        p = replace(BOUND, V0=depth)
        E = solve_energy(p, BOUND_STATE).e_upper
        rc = radial_coefficients(p, BOUND_STATE)
        cfg = default_config(p, (E - 0.05, E + 0.05))
        grid = oracle._sweeps(rc, cfg)
        assert grid.every == every
        Es = [E, *cfg.energy_bracket]
        with np.errstate(all="raise"):
            tops, attempts, _ = self.counted_pass(monkeypatch, Es, grid)
            every_level = oracle._tops(Es, grid._replace(every=1))
        assert attempts == 1
        assert tops.tobytes() == every_level.tobytes()
        assert tops.tobytes() == direction_tops(rc, Es, grid).tobytes()

    # a direction of row - 1, row or row + 1 steps ends just inside or on a
    # row's end; at 2 row + 1 and 1025 = 8 row + 1 the odd row meets an
    # identity up the gathered tree, as if carried alone
    @pytest.mark.parametrize("n_in", [1, 2, ROW - 1, ROW, ROW + 1, 2 * ROW + 1,
                                      1025])
    @pytest.mark.parametrize("n_out", [1, 2, ROW - 1, ROW, ROW + 1,
                                       2 * ROW + 1, 1025])
    def test_step_counts(self, bound_root, n_out, n_in):
        # the coefficients are taken at the energies' midpoint
        rc = radial_coefficients(BOUND, BOUND_STATE)
        r_min, r_max, r_match = oracle._truncation(BOUND)
        grid = oracle._grid(rc, np.linspace(r_min, r_match, n_out + 1),
                            np.linspace(r_max, r_match, n_in + 1),
                            (bound_root, bound_root + 0.3))
        rows = grid.rows
        assert rows == (n_out // ROW + 1, -(-n_in // ROW))
        assert grid.D.shape[-1] == ROW * sum(rows)
        # each direction's rows hold its steps' coefficients, then pads of
        # h = 0, whose coefficients are (I, 0, 0, 0, 0); the grid keeps the
        # shape at r_min and at the match node
        pad = np.zeros((5, 4, 1))
        pad[0, [0, 3]] = 1.0
        for d, r in enumerate(grid.r):
            D, n = direction_D(grid, d), len(r) - 1
            assert D.shape[-1] == ROW * rows[d]
            assert np.array_equal(D[..., :n], unpadded(rc, r, grid.E_ref))
            assert np.array_equal(D[..., n:],
                                  np.broadcast_to(pad, D[..., n:].shape))
        out = grid.r[0]
        assert grid.f_ends == (shape_factor(out[0], rc.p.R, rc.p.a),
                               shape_factor(out[-1], rc.p.R, rc.p.a))
        self.assert_tops_match(rc, [bound_root, bound_root + 0.3], grid)


class TestIntegrationBlowup:
    # a step of h = 1e200 squares past the float range: its coefficients
    # hold +-inf, and NaN where their terms meet as inf - inf, so no entry of
    # its matrix is finite, whether it starts where U > 0 at all three of its
    # points ("inf") or where U < 0, inside the well ("nan").  Grids that
    # hold it are built with overflow ignored
    @pytest.fixture(params=["inf", "nan"])
    def blowup(self, request, bound_root):
        rc = radial_coefficients(BOUND, BOUND_STATE)
        cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05))
        grid = oracle._sweeps(rc, cfg)
        out, inw = grid.r
        u = rc.u(shape_factor(out, rc.p.R, rc.p.a), bound_root)
        start = out[np.argmin(u)] if request.param == "nan" else inw[0]
        bad = start + np.array([0.0, 1e200, 2e200])
        with np.errstate(over="ignore", invalid="ignore"):
            T = oracle._transfer_entries(bound_root,
                                         unpadded(rc, bad, grid.E_ref),
                                         grid.E_ref)
        assert not np.isfinite(T).any()
        return rc, bound_root, bad, grid.r, cfg.energy_bracket

    def test_trajectory_raises(self, blowup):
        rc, E, bad, (_, inw), bracket = blowup
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationBlowup, match="overflowed"):
                trajectory(rc, E, oracle._grid(rc, bad, inw, bracket), 0, -1.0)

    # the step inside a longer sweep, after steps of 1e-3 and before steps of
    # h = 0: as the 4th step of the second block of 8 (16 steps), and as the
    # last step of the sweep, in a block its pads fill (13 steps)
    @pytest.mark.parametrize("before, after", [(11, 4), (12, 0)],
                             ids=["mid-block", "partial-block-end"])
    def test_trajectory_raises_inside_sweep(self, blowup, before, after):
        rc, E, bad, (_, inw), bracket = blowup
        start = bad[0]
        nodes = np.concatenate([start - 1e-3 * np.arange(before, 0, -1), [start],
                                np.full(after + 1, start + 1e200)])
        assert len(nodes) - 1 == before + 1 + after
        with np.errstate(over="ignore", invalid="ignore"):
            long = oracle._grid(rc, nodes, inw, bracket)
            with pytest.raises(IntegrationBlowup, match="overflowed"):
                trajectory(rc, E, long, 0, -1.0)

    @pytest.mark.parametrize("direction", [0, 1])
    def test_unscaled_trajectory_raises(self, monkeypatch, direction):
        # at depth 1e13 the grid's bound renormalizes every 2 levels, so a
        # trajectory scales each matrix first; a grid forced to every = 7
        # does not, and the unscaled blocks' product leaves the float range
        p = replace(BOUND, V0=1e13)
        root = solve_energy(p, BOUND_STATE).e_upper
        cfg = default_config(p, (root - 0.5, root + 0.5))
        grid = oracle._sweeps(radial_coefficients(p, BOUND_STATE), cfg)
        assert grid.every == 2
        slope0 = oracle._slopes(root, grid)[direction]

        def unscaled(*args):
            raise AssertionError("the trajectory scaled its matrices")
        monkeypatch.setattr(oracle, "_renormalize", unscaled)
        with np.errstate(all="ignore"):
            with pytest.raises(IntegrationBlowup, match="overflowed"):
                oracle._trajectory(root, grid._replace(every=7), direction, slope0)

    @pytest.mark.parametrize("direction", [0, 1])
    def test_fused_pass_raises(self, blowup, direction):
        rc, E, bad, nodes, bracket = blowup
        pair = list(nodes)
        pair[direction] = bad
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationBlowup, match="overflowed"):
                oracle._tops([E], oracle._grid(rc, *pair, bracket))

    @pytest.mark.parametrize("direction", [0, 1])
    def test_fused_pass_keeps_the_callers_error_state(self, blowup, direction):
        # two steps of h = 1e50 from the same start have finite matrices,
        # entries near 1e200, whose product overflows: the grid's bound is
        # past the float range, so the one pass renormalizes every level,
        # and its first level overflows under the caller's error state
        rc, E, bad, nodes, bracket = blowup
        pair = list(nodes)
        pair[direction] = bad[0] + np.array([0.0, 1e50, 2e50])
        grid = oracle._grid(rc, *pair, bracket)
        assert np.isfinite(oracle._transfer_entries(E, grid.D,
                                                    grid.E_ref)).all()
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                oracle._tops([E], grid)


@pytest.mark.parametrize("size", [1e200, 1e-200])
def test_node_count_reads_signs(size):
    # the product of the two neighbours overflows at 1e200, and at 1e-200
    # underflows to -0.0, which would drop the node
    with np.errstate(all="raise"):
        assert oracle._count_nodes(np.array([size, -size])) == 1


def ranked(states):
    """Each state's energy and node count, in order."""
    return [(float(s), s.nodes) for s in states]


def counting(monkeypatch, record):
    """Route oracle._mismatches through record(Es) first."""
    mismatches = oracle._mismatches

    def counted(Es, *solve):
        record(Es)
        return mismatches(Es, *solve)

    monkeypatch.setattr(oracle, "_mismatches", counted)


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
        # Brent starts from both bracket ends, which the scan already holds:
        # no energy is evaluated twice.  A pass takes 16 grid points, at
        # 20000 steps too; the root lies in cell 12 of 24, so the scan stops
        # after the first pass and one refinement pass adds one energy
        cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05),
                             step_count=20_000)
        mismatches, passes, values = oracle._mismatches, [], {}

        def counted(Es, *solve):
            passes.append(list(Es))
            out = mismatches(Es, *solve)
            values.update(zip(Es, out.tolist()))
            return out

        monkeypatch.setattr(oracle, "_mismatches", counted)
        eig, = find_eigenvalues(cfg, BOUND, BOUND_STATE, count=1,
                                scan_points=25, tol=1e-11)
        energies = [E for block in passes for E in block]
        assert [len(block) for block in passes] == [16, 1]
        assert len(set(energies)) == len(energies) == 17
        # reference: scipy's brentq on the same scan cell, every value
        # recomputed, to the bit
        from scipy.optimize import brentq
        grid = np.linspace(*cfg.energy_bracket, 25)
        i = next(i for i in range(24)
                 if values[grid[i]] * values[grid[i + 1]] < 0.0)
        ref = brentq(lambda E: shoot_mismatch(E, cfg, BOUND, BOUND_STATE),
                     grid[i], grid[i + 1], xtol=1e-11)
        assert eig == ref

    @pytest.mark.parametrize("offsets, tol, scan_points, full_pins, first_pins", [
        # levels with 0-3 nodes: a block of 16 holds the ground state's cell,
        # and the 3-node state's cell is in the last block, so count=4 scans
        # every point
        ((-0.05, -0.05 + 39 * 3.05 / 299), 1e-6, 40, (11, 61), (4, 19)),
        # excited states only, each with nodes: count=1 stops after its first
        # state, as node counts rise with E; count=4 needs the whole scan
        ((0.1, 0.4), 1e-10, 40, (11, 65), (7, 37)),
        # oracle-ladder's 60-point bracket: count=4 stops after the first 48
        # points' 4 cells, refined in one round (16 passes and 92 energies,
        # 7 cells refined, when only a 0-node count-th state stopped a scan)
        ((-0.05, -0.05 + 59 * 3.05 / 299), 1e-6, 60, (11, 69), (4, 19)),
    ], ids=["levels-0-3", "excited", "ladder-60"])
    def test_early_stop_is_exact(self, bound_root, monkeypatch, offsets, tol,
                                 scan_points, full_pins, first_pins):
        # count=1 returns the first of count=4's states; on BOUND, where
        # w = 2E + V0 f > 0, each stops once it holds count states whose node
        # counts rise with E.  Either way no energy is evaluated twice
        cfg = default_config(BOUND, tuple(bound_root + d for d in offsets))
        passes = []

        def run(count):
            passes.clear()
            eigs = find_eigenvalues(cfg, BOUND, BOUND_STATE, count=count,
                                    scan_points=scan_points, tol=tol)
            energies = [E for block in passes for E in block]
            assert len(set(energies)) == len(energies)
            return eigs, (len(passes), len(energies))

        counting(monkeypatch, lambda Es: passes.append(list(Es)))
        full, full_passes = run(4)
        first, first_passes = run(1)
        assert first == full[:1]
        assert (full_passes, first_passes) == (full_pins, first_pins)

    def test_deep_well_reference(self):
        # at V0 = 1e8 the E-dependence of U enters the matrices as the
        # polynomial in E - E_ref, not through c1(E) = frak_u(E) - c2, which
        # cancels to order 1 from terms of order V0^2: the eigenvalue is
        # within 2e-9 of the 60-digit reference of ROADMAP item 23
        p = replace(BOUND, V0=1e8)
        root = solve_energy(p, BOUND_STATE).e_upper
        cfg = default_config(p, (root - 0.5, root + 0.5))
        eig, = find_eigenvalues(cfg, p, BOUND_STATE, count=1)
        assert abs(eig - 7.5731529130707) <= 2e-9

    def test_empty_bracket_raises(self, bound_root):
        cfg = default_config(BOUND, (bound_root - 0.04, bound_root - 0.02))
        with pytest.raises(NoEigenvalueInBracket):
            find_eigenvalues(cfg, BOUND, BOUND_STATE, count=1, scan_points=15)

    def test_rejects_nonpositive_count(self, bound_root, monkeypatch):
        # and the other arguments out of their domain: each before any solve
        cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05))

        def no_solve(*args):
            raise AssertionError("solved before checking its arguments")

        monkeypatch.setattr(oracle, "radial_coefficients", no_solve)
        for kwargs in (dict(count=0), dict(count=-1), dict(count=1.5),
                       dict(scan_points=1), dict(scan_points=0),
                       dict(scan_points=-1), dict(scan_points=25.5),
                       dict(tol=0.0), dict(tol=-1e-9), dict(tol=math.nan),
                       dict(tol=math.inf)):
            with pytest.raises(ValueError, match=next(iter(kwargs))):
                find_eigenvalues(cfg, BOUND, BOUND_STATE,
                                 **{"count": 1, **kwargs})

    def test_rejects_tol_past_float_range(self, bound_root, monkeypatch):
        # math.isfinite raised a bare OverflowError on such an int; it is
        # named before any solve
        cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05))

        def no_solve(*args):
            raise AssertionError("solved before checking tol")

        monkeypatch.setattr(oracle, "radial_coefficients", no_solve)
        with pytest.raises(ValueError, match="^tol must lie in the float range$"):
            find_eigenvalues(cfg, BOUND, BOUND_STATE, count=1, tol=10**400)


class TestSturmStop:
    # on BOUND and on wells drawn around it, w = 2E + V0 f > 0 on the outward
    # sweep over the whole bracket, so node counts rise with E and a scan
    # stops at its count-th state; it must return the full pass's first
    # count states

    @pytest.fixture(scope="class")
    def wells(self):
        """BOUND and 3 wells drawn around it (depth, alpha', ell and R), each
        with oracle-ladder's config: the first 60 points of the 300-point grid
        over (E0 - 0.05, E0 + 3) at 10000 steps."""
        rng, wells = np.random.default_rng(29), [(BOUND, BOUND_STATE)]
        for _ in range(3):
            wells.append((replace(BOUND, V0=rng.uniform(9.7, 10.3),
                                  alpha_prime=rng.uniform(0.00145, 0.00155),
                                  R=rng.uniform(6.9, 7.1)),
                          QuantumState(n=0, ell=int(rng.integers(19, 22)), D=3)))
        configs = []
        for p, state in wells:
            lo = solve_energy(p, state).e_upper - 0.05
            configs.append((p, state, default_config(
                p, (lo, lo + 59 * 3.05 / 299), step_count=10_000)))
        return configs

    def test_matches_the_full_pass(self, wells):
        for p, state, cfg in wells:
            full = find_eigenvalues(cfg, p, state, count=sys.maxsize,
                                    scan_points=60, tol=1e-6)
            assert [s.nodes for s in full[:4]] == [0, 1, 2, 3]
            for count in (1, 2, 3, 4):
                stopped = find_eigenvalues(cfg, p, state, count=count,
                                           scan_points=60, tol=1e-6)
                assert ranked(stopped) == ranked(full[:count])

    def test_falling_counts_fall_back(self, wells, monkeypatch):
        # a grid on which the 0- and 1-node states' counts trade places: the
        # states refined first do not rise with E, so the scan runs on as if
        # no count rose, to the end of the bracket, and ranks as the full pass
        count_nodes, energies = oracle._count_nodes, []

        def swapped(values):
            n = count_nodes(values)
            return {0: 1, 1: 0}.get(n, n)

        monkeypatch.setattr(oracle, "_count_nodes", swapped)
        counting(monkeypatch, energies.extend)
        p, state, cfg = wells[0]
        full = find_eigenvalues(cfg, p, state, count=sys.maxsize,
                                scan_points=60, tol=1e-6)
        energies.clear()
        eigs = find_eigenvalues(cfg, p, state, count=4, scan_points=60,
                                tol=1e-6)
        assert [s.nodes for s in eigs] == [0, 1, 2, 3]
        assert ranked(eigs) == ranked(full[:4])
        assert eigs[0] > eigs[1]
        assert cfg.energy_bracket[1] in energies  # the scan's last point

    @pytest.mark.parametrize("well, offsets, count, pins", [
        # the reference well (V0 = -10, E near -10): w < 0 everywhere, and
        # no shooting state, so the scan runs to its end
        ("reference", (-0.5, 0.5), 1, (25, 400)),
        # BOUND from below E = -V0 f(r_match) / 2, where w < 0 at the match
        # radius: count=2 finds its 1-node state in block 20 of 25 but runs
        # on, as a scan whose counts need not rise stops only at a 0-node
        # state, and refines every later cell: the passes of a scan that
        # only a 0-node count-th state could stop
        ("bound", (-10.0, 3.0), 2, (69, 529)),
    ], ids=["reference", "bound"])
    def test_falling_sign_keeps_the_full_pass(self, monkeypatch, well,
                                              offsets, count, pins):
        p = reference_params(0.0) if well == "reference" else BOUND
        e0 = solve_energy(p, BOUND_STATE).e_upper
        cfg = default_config(p, tuple(e0 + d for d in offsets))
        grid = oracle._sweeps(radial_coefficients(p, BOUND_STATE), cfg)
        assert 2.0 * cfg.energy_bracket[0] + p.V0 * grid.f_ends[1] < 0.0
        passes = []
        counting(monkeypatch, lambda Es: passes.append(len(Es)))
        with (pytest.raises(NoEigenvalueInBracket) if well == "reference"
              else contextlib.nullcontext()):
            find_eigenvalues(cfg, p, BOUND_STATE, count=count)
        assert (len(passes), sum(passes)) == pins


def brent_port_root(f, a, b, xtol):
    """oracle._brentq driven on the scalar function f, as brentq drives it."""
    run, fx = oracle._brentq(a, b, f(a), f(b), xtol), None
    try:
        while True:
            fx = f(run.send(fx))
    except StopIteration as stop:
        return stop.value


def brent_branches(cases):
    """The tagged branches of oracle._brentq that the cases (f, a, b, xtol)
    run, traced line by line."""
    code = oracle._brentq.__code__
    lines, first = inspect.getsourcelines(oracle._brentq)
    ran = set()

    def tracer(frame, event, arg):
        if frame.f_code is not code:
            return None
        if event == "line":
            ran.add(frame.f_lineno)
        return tracer

    previous = sys.gettrace()  # a coverage tool's or a debugger's
    sys.settrace(tracer)
    try:
        for case in cases:
            with contextlib.suppress(RefinementNotConverged):
                brent_port_root(*case)
    finally:
        sys.settrace(previous)
    tags = ("interpolate", "extrapolate", "good short step", "bisect",
            "takes no step")
    return {tag for i, line in enumerate(lines) if first + i in ran
            for tag in tags if f"# {tag}" in line}


class TestBrentPort:
    @staticmethod
    def brentq(*args, **kwargs):
        # the reference; the library itself imports no scipy.optimize
        from scipy.optimize import brentq
        return brentq(*args, **kwargs)

    CASES = [
        (lambda x: 2.0 * (x - 0.3), -1.0, 2.0),  # a line: interpolation
        (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
        (lambda x: math.cos(x) - x, 0.0, 1.5),
        (lambda x: math.exp(x) - 3.0, -2.0, 4.0),
        (lambda x: math.atan(50.0 * (x - 0.123)), -3.0, 2.5),  # bisections
        (lambda x: math.sin(10.0 * x) + 0.3, -1.8, 1.2),
        # the steps' difference quotients underflow: C divides by zero
        (lambda x: 1e-160 * (x - 0.3), 0.1, 0.9),
        (lambda x: 1e-160 * ((x - 0.2) ** 3 + 0.1 * (x - 0.2)), -0.1, 1.9),
    ]

    TOLS = [1e-6, 1e-8, 1e-10, 1e-12, 1e-14]

    @pytest.mark.parametrize("xtol", TOLS)
    def test_matches_brentq_to_the_bit(self, xtol):
        for f, a, b in self.CASES:
            assert brent_port_root(f, a, b, xtol) == self.brentq(f, a, b,
                                                                 xtol=xtol)

    def test_cases_run_every_branch(self):
        cases = [(f, a, b, xtol) for f, a, b in self.CASES
                 for xtol in self.TOLS]
        assert brent_branches(cases) == {"interpolate", "extrapolate",
                                         "good short step", "bisect",
                                         "takes no step"}

    @pytest.mark.parametrize("a, b", [(1.0, 2.0), (0.0, 1.0)])
    def test_root_at_an_end(self, a, b):
        def f(x):
            return x - 1.0

        assert brent_port_root(f, a, b, 1e-12) == self.brentq(f, a, b,
                                                              xtol=1e-12) == 1.0

    def test_same_signs_rejected(self):
        with pytest.raises(ValueError):
            brent_port_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)

    def test_iteration_limit_is_typed(self):
        def f(x):
            return (x - 0.3) ** 11

        with pytest.raises(RuntimeError):
            self.brentq(f, -1.0, 2.0, xtol=1e-14)
        with pytest.raises(RefinementNotConverged):
            brent_port_root(f, -1.0, 2.0, 1e-14)

    @pytest.mark.parametrize("xtol", [1e-6, 1e-10, 1e-14])
    def test_ladder_cells(self, bound_root, xtol):
        # the sign-change cells of BOUND's four lowest states, on the mismatch
        cfg = default_config(BOUND, (bound_root - 0.05,
                                     bound_root - 0.05 + 39 * 3.05 / 299))
        rc = radial_coefficients(BOUND, BOUND_STATE)
        sweeps = oracle._sweeps(rc, cfg)
        grid = np.linspace(*cfg.energy_bracket, 40).tolist()
        values = oracle._mismatches(grid, sweeps).tolist()
        cells = [(grid[i - 1], grid[i]) for i in range(1, 40)
                 if values[i - 1] * values[i] < 0.0]
        assert len(cells) == 4
        cache = dict(zip(grid, values))

        def f(E):
            if E not in cache:
                cache[E] = oracle._mismatches([E], sweeps)[0].item()
            return cache[E]

        for a, b in cells:
            assert brent_port_root(f, a, b, xtol) == self.brentq(f, a, b,
                                                                 xtol=xtol)
        # and in lockstep, as find_eigenvalues refines them
        lockstep = oracle._refine([(a, b, f(a), f(b)) for a, b in cells],
                                  xtol, sweeps)
        assert lockstep == [brent_port_root(f, a, b, xtol) for a, b in cells]


class TestTransferEntries:
    @staticmethod
    def assert_matches_stages(p, E, cfg, outward):
        # each step's matrix within 1e-14 of the stage composition at E,
        # relative to its max-abs entry; the pads, steps of h = 0, are the
        # identity
        rc = radial_coefficients(p, BOUND_STATE)
        grid, d = oracle._sweeps(rc, cfg), 0 if outward else 1
        steps = len(grid.r[d]) - 1
        T = rk4_stage_matrices(rc, E, grid.r[d])
        entries = oracle._transfer_entries(E, direction_D(grid, d), grid.E_ref)
        assert entries.shape == (2, 2, oracle._ROW * grid.rows[d])
        scale = np.abs(T).max(axis=(1, 2))
        err = np.abs(np.moveaxis(entries[..., :steps], -1, 0) - T)
        err = err.max(axis=(1, 2))
        assert np.max(err / scale) <= 1e-14
        assert np.array_equal(entries[..., steps:],
                              np.broadcast_to(np.eye(2)[..., None],
                                              entries[..., steps:].shape))

    # 0.3 and 1.0 lie outside the bracket, 6 and 20 half-widths from E_ref
    @pytest.mark.parametrize("offset", [-0.05, 0.0, 0.3, 1.0])
    @pytest.mark.parametrize("outward", [True, False])
    def test_closed_form_matches_stage_composition(self, bound_root, offset,
                                                   outward):
        cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05))
        self.assert_matches_stages(BOUND, bound_root + offset, cfg, outward)

    @pytest.mark.parametrize("offset", [-0.05, 0.0, 1.0])
    @pytest.mark.parametrize("outward", [True, False])
    def test_deep_well(self, offset, outward):
        # at V0 = 1e4 the matrices' entries reach about 2e8 and a and b
        # about 1e8 and 1e4
        p = replace(BOUND, V0=1e4)
        root = solve_energy(p, BOUND_STATE).e_upper
        cfg = default_config(p, (root - 0.05, root + 0.05))
        self.assert_matches_stages(p, root + offset, cfg, outward)


class TestEigenfunction:
    def test_normalized_and_localized(self, bound_root):
        cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05))
        eig = find_eigenvalues(cfg, BOUND, BOUND_STATE, count=1,
                               scan_points=25, tol=1e-11)[0]
        r, F = shoot_eigenfunction(eig, cfg, BOUND, BOUND_STATE)
        assert r.shape == F.shape
        r_min, r_max, _ = oracle._truncation(BOUND)
        assert r[0] == r_min and r[-1] == r_max
        assert np.all(np.diff(r) > 0.0)
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


    @pytest.mark.parametrize("depth", [1e8, 1e10])
    def test_deep_well_is_normalized(self, depth):
        # the stitched branches reach about 1.8e154 at depth 1e8 and 1.8e216
        # at 1e10, past the square root of the float range: F is scaled by a
        # power of two before its norm, so F^2 stays finite
        p = replace(BOUND, V0=depth)
        root = solve_energy(p, BOUND_STATE).e_upper
        cfg = default_config(p, (root - 0.5, root + 0.5))
        eig, = find_eigenvalues(cfg, p, BOUND_STATE, count=1)
        with np.errstate(over="raise", invalid="raise"):
            r, F = shoot_eigenfunction(eig, cfg, p, BOUND_STATE)
        assert np.abs(F).max() > 0.0
        assert np.trapezoid(F * F, r) == pytest.approx(1.0, rel=1e-10)


class TestShootingState:
    @pytest.fixture(scope="class")
    def ground(self, bound_root):
        cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05))
        state, = find_eigenvalues(cfg, BOUND, BOUND_STATE, count=1,
                                  scan_points=25, tol=1e-11)
        return cfg, state

    def test_eigenfunction_is_the_floats(self, ground):
        cfg, s = ground
        assert type(s) is oracle.ShootingState and s.nodes == 0
        assert_same_bytes(shoot_eigenfunction(s, cfg, BOUND, BOUND_STATE),
                          shoot_eigenfunction(float(s), cfg, BOUND, BOUND_STATE))

    @pytest.mark.parametrize("other", ["cfg", "p", "state"])
    def test_other_solve_is_built_afresh(self, ground, other):
        # handed with another bracket (so another inward grid), well or
        # state, a state gives what its float gives there, not its own
        cfg, s = ground
        inputs = {"cfg": cfg, "p": BOUND, "state": BOUND_STATE}
        inputs[other] = {
            "cfg": default_config(BOUND, (s - 0.1, s + 0.1)),
            "p": replace(BOUND, alpha_prime=0.002),
            "state": QuantumState(0, 21, 3),
        }[other]
        args = (inputs["cfg"], inputs["p"], inputs["state"])
        got = shoot_eigenfunction(s, *args)
        assert_same_bytes(got, shoot_eigenfunction(float(s), *args))
        own = shoot_eigenfunction(s, cfg, BOUND, BOUND_STATE)
        assert not all(np.array_equal(a, b) for a, b in zip(got, own))

    def test_grid_holds_the_energy(self, ground):
        # a float outside the bracket gets the grid of the bracket widened to
        # hold it, as in shoot_mismatch, so the grid's bound holds at it
        cfg, _ = ground
        lo, hi = cfg.energy_bracket
        E = hi + 0.3
        assert_same_bytes(
            shoot_eigenfunction(E, cfg, BOUND, BOUND_STATE),
            shoot_eigenfunction(E, default_config(BOUND, (lo, E)), BOUND,
                                BOUND_STATE))

    def test_keeps_the_inward_half(self, ground):
        # of its solve's grid a state keeps the inward steps' coefficients
        # and both directions' nodes, the inward array its own, not a view
        # that would keep the whole grid alive
        cfg, s = ground
        full = oracle._sweeps(radial_coefficients(BOUND, BOUND_STATE), cfg)
        kept = s._solve.grid
        r, D, E_ref, every = kept.r, kept.D, kept.E_ref, kept.every
        assert (E_ref, every) == (full.E_ref, full.every)
        assert D.base is None and np.array_equal(D, direction_D(full, 1))
        assert all(np.array_equal(a, b) for a, b in zip(r, full.r, strict=True))

    def test_serializes_as_its_float(self, ground):
        # a pickle keeps the energy and nodes, not the solve, whose
        # eigenfunction is then built afresh, the same
        cfg, s = ground
        back = pickle.loads(pickle.dumps(s))
        assert type(back) is oracle.ShootingState
        assert back == s and back.nodes == s.nodes
        assert json.dumps([s]) == json.dumps([float(s)])
        assert json.loads(json.dumps(s)) == s
        assert repr(s) == repr(float(s)) and hash(s) == hash(float(s))
        assert_same_bytes(shoot_eigenfunction(back, cfg, BOUND, BOUND_STATE),
                          shoot_eigenfunction(s, cfg, BOUND, BOUND_STATE))


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
        grid = oracle._sweeps(rc, cfg)
        for e in eigs:
            args = (rc, e, grid, 0, oracle._slopes(e, grid)[0])
            nodes_scan.append(oracle._count_nodes(trajectory(*args)[0]))
            nodes_step.append(oracle._count_nodes(stepwise_trajectory(*args)[0]))
        assert nodes_scan == nodes_step == [0, 1, 2, 3]

        _, F_scan = zip(*(shoot_eigenfunction(e, cfg, BOUND, BOUND_STATE)
                          for e in eigs))
        def stepwise(E, grid, d, slope0):
            return stepwise_trajectory(rc, E, grid, d, slope0)

        monkeypatch.setattr(oracle, "_trajectory", stepwise)
        _, F_step = zip(*(shoot_eigenfunction(e, cfg, BOUND, BOUND_STATE)
                          for e in eigs))
        for a, b in zip(F_scan, F_step):
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_states_carry_their_solve(self, lowest_states):
        # each state's node count is the one the walk ranked it by, and its
        # eigenfunction, from its own grid and outward sweep, is its float's
        cfg, eigs = lowest_states
        assert [s.nodes for s in eigs] == [0, 1, 2, 3]
        for s in eigs:
            assert_same_bytes(
                shoot_eigenfunction(s, cfg, BOUND, BOUND_STATE),
                shoot_eigenfunction(float(s), cfg, BOUND, BOUND_STATE))

    def test_states_share_the_inward_half(self, lowest_states):
        # the states of one solve keep one copy of what they read of its grid
        _, eigs = lowest_states
        assert len({id(s._solve.grid) for s in eigs}) == 1

    @pytest.mark.parametrize("steps", [1, 2, 3, 5, 7, 8, 9, 16, 17, 1023, 1025])
    @pytest.mark.parametrize("outward", [True, False])
    def test_tree_scan_edge_counts(self, lowest_states, steps, outward):
        cfg, eigs = lowest_states
        rc = radial_coefficients(BOUND, BOUND_STATE)
        r_min, r_max, _ = oracle._truncation(BOUND)
        nodes = np.linspace(r_min, r_max, steps + 1)  # the whole domain,
        # to see nodes
        grid = oracle._grid(rc, nodes, nodes[::-1], cfg.energy_bracket)
        d = 0 if outward else 1
        slopes = oracle._slopes(eigs[3], grid)
        assert_matches_stepwise((rc, eigs[3], grid, d, slopes[d]))

    def test_deep_well_keeps_headroom(self):
        # at V0 = 1000 the outward sweep of the ground state grows by about
        # e^6000 and is rescaled 18 times: no value may pass 2^500, so that
        # neighbouring values' products and F^2 stay finite
        p = replace(BOUND, V0=1000.0)
        root = solve_energy(p, BOUND_STATE).e_upper
        cfg = default_config(p, (root - 0.5, root + 0.5))
        with np.errstate(over="raise", invalid="raise"):
            eigs = find_eigenvalues(cfg, p, BOUND_STATE, count=1)
        assert eigs == pytest.approx([root], abs=1e-9)
        rc = radial_coefficients(p, BOUND_STATE)
        grid = oracle._sweeps(rc, cfg)
        args = (rc, eigs[0], grid, 0, oracle._slopes(eigs[0], grid)[0])
        values, exponents = trajectory(*args)
        assert np.max(np.abs(values)) <= 2.0 ** 500
        assert exponents[-1] * math.log(2.0) > 5000.0
        assert assert_matches_stepwise(args) == 0

    @pytest.mark.parametrize("depth", [
        # the inward sweep at the root crosses zero once where the stepwise
        # sweep does not, about 1e-185 of its peak, unscaled matrices too:
        # both read U through terms of order V0^2 that cancel (ROADMAP
        # item 23)
        pytest.param(1e12, marks=pytest.mark.xfail(
            strict=True, reason="inward node count differs from the stepwise "
            "sweep's at U's cancellation noise")),
        1e13, 1e16])
    def test_deeper_well_scales_its_prefixes(self, depth, monkeypatch):
        # from depth 1e12 on, the grid's bound no longer keeps a block's 8
        # prefix products in range (from 1e13 on they would leave it): each
        # transfer matrix is first scaled by a power of two, which the
        # exponents carry, so nothing overflows under over="raise", and both
        # sweeps keep the stepwise sweep's amplitudes and nodes
        p = replace(BOUND, V0=depth)
        root = solve_energy(p, BOUND_STATE).e_upper
        cfg = default_config(p, (root - 0.5, root + 0.5))
        scaled = []
        renormalize = oracle._renormalize
        monkeypatch.setattr(oracle, "_renormalize",
                            lambda M, *a: scaled.append(M.ndim) or renormalize(M, *a))
        with np.errstate(over="raise", invalid="raise"):
            eig, = find_eigenvalues(cfg, p, BOUND_STATE, count=1)
            r, F = shoot_eigenfunction(eig, cfg, p, BOUND_STATE)
        assert eig.nodes == 0 and np.isfinite(F).all()
        assert 3 in scaled  # a trajectory's matrices, (2, 2, steps)
        rc = radial_coefficients(p, BOUND_STATE)
        grid = oracle._sweeps(rc, cfg)
        for d in (0, 1):
            assert_matches_stepwise((rc, eig, grid, d, oracle._slopes(eig, grid)[d]))

    @pytest.mark.parametrize("depth", [10, 1e12])
    def test_scaled_matrices_keep_every_bit(self, depth):
        # scaling each transfer matrix by a power of two is exact: where the
        # unscaled prefixes stay in range (to depth 1e12, the first whose
        # grid scales them), both sweeps are the unscaled ones to the bit,
        # each amplitude's mantissa and its power of two
        p = replace(BOUND, V0=depth)
        root = solve_energy(p, BOUND_STATE).e_upper
        cfg = default_config(p, (root - 0.5, root + 0.5))
        eig, = find_eigenvalues(cfg, p, BOUND_STATE, count=1)
        rc = radial_coefficients(p, BOUND_STATE)
        grid = oracle._sweeps(rc, cfg)
        for d in (0, 1):
            slope0 = oracle._slopes(eig, grid)[d]
            with np.errstate(over="raise", invalid="raise"):
                (v_a, e_a), (v_b, e_b) = (
                    trajectory(rc, eig, grid._replace(every=every), d, slope0)
                    for every in (7, 2))
            (m_a, k_a), (m_b, k_b) = np.frexp(v_a), np.frexp(v_b)
            assert np.array_equal(m_a, m_b)
            assert np.array_equal(k_a + e_a, k_b + e_b)

    @pytest.mark.parametrize("outward", [True, False])
    def test_rescaled_pass(self, lowest_states, monkeypatch, outward):
        # no sweep of BOUND grows past the default size, 2^500; at a size of
        # 16 both sweeps of the ground state are rescaled, the inward ones of
        # every state about 50 times, and keep their nodes and amplitudes
        cfg, eigs = lowest_states
        rc = radial_coefficients(BOUND, BOUND_STATE)
        grid, d = oracle._sweeps(rc, cfg), 0 if outward else 1
        rescaled = []
        for e in eigs:
            args = (rc, e, grid, d, oracle._slopes(e, grid)[d])
            v_def, e_def = trajectory(*args)
            with monkeypatch.context() as m:
                m.setattr(oracle, "_RESCALE", 16.0)
                v_low, e_low = trajectory(*args)
            assert not e_def.any()
            assert np.all(np.diff(e_low) >= 0)
            assert oracle._count_nodes(v_low) == oracle._count_nodes(v_def)
            F_def, F_low = np.ldexp(v_def, e_def), np.ldexp(v_low, e_low)
            assert np.max(np.abs(F_low - F_def)) <= 1e-13 * np.max(np.abs(F_def))
            rescaled.append(e_low[-1] > 0)
        assert rescaled[0] and (outward or all(rescaled))


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


def uniform_sweeps(rc, cfg):
    """Both sweeps on the uniform grid of cfg.step_count steps over the
    well's truncation, split at the node nearest the match radius: the
    reference for the graded tail."""
    r_min, r_max, r_match = oracle._truncation(rc.p)
    nodes = np.linspace(r_min, r_max, cfg.step_count + 1)
    i = int(np.argmin(np.abs(nodes - r_match)))
    return oracle._grid(rc, nodes[:i + 1], nodes[i:][::-1], cfg.energy_bracket)


class TestGradedTail:
    @pytest.mark.parametrize("p, offsets", [
        (BOUND, (-0.05, 0.05)),
        (BOUND, (0.1, 0.4)),
        (RICHARDSON, (-0.05, 0.05)),
        (replace(BOUND, alpha_prime=0.01), (-0.05, 0.05)),
        (replace(BOUND, V0=1000.0), (-0.05, 0.05)),
    ])
    def test_adds_no_error(self, p, offsets, monkeypatch):
        # the TestDefaultStepCount cells and the deep well: the graded sweeps
        # give the uniform grid's eigenvalue, far inside the discretization
        # error of either (up to about 1e-10); at alpha' = 0.01 U dips below
        # zero outside R, so the tail decays late; on the deep well the
        # 1 / kappa_max cap holds the interior's steps at the base step
        e0 = solve_energy(p, BOUND_STATE).e_upper
        cfg = default_config(p, tuple(e0 + d for d in offsets))

        def eig():
            e, = find_eigenvalues(cfg, p, BOUND_STATE, count=1,
                                  scan_points=40, tol=1e-14)
            return e

        graded = eig()
        monkeypatch.setattr(oracle, "_sweeps", uniform_sweeps)
        assert abs(graded - eig()) <= 1e-12

    def test_reference_well_mismatch(self):
        # the reference well holds no shooting state, so its cell compares
        # the mismatch across the bracket around its closed-form root
        ref = reference_params(0.0)
        e0 = solve_energy(ref, BOUND_STATE).e_upper
        cfg = default_config(ref, (e0 - 0.1, e0 + 0.1))
        rc = radial_coefficients(ref, BOUND_STATE)
        grid = np.linspace(*cfg.energy_bracket, 9).tolist()
        graded = oracle._mismatches(grid, oracle._sweeps(rc, cfg))
        uniform = oracle._mismatches(grid, uniform_sweeps(rc, cfg))
        assert np.max(np.abs(graded - uniform)) <= 1e-12
        assert len(oracle._sweeps(rc, cfg).r[1]) - 1 <= (len(uniform_sweeps(
            rc, cfg).r[1]) - 1) / 3

    def test_continuum_bracket_is_uniform(self, bound_root):
        # a bracket whose top reaches c0 <= 0 allows tails that do not
        # decay: the sweeps are the uniform grid's, node for node
        rc = radial_coefficients(BOUND, BOUND_STATE)
        e_edge = math.sqrt(BOUND.M**2 + rc.c0_const)  # c0(e_edge) = 0
        for top in (e_edge, e_edge + 1.0):
            cfg = default_config(BOUND, (bound_root, top))
            grid, ref = oracle._sweeps(rc, cfg), uniform_sweeps(rc, cfg)
            for r, r_ref in zip(grid.r, ref.r):
                assert np.array_equal(r, r_ref)
            assert np.array_equal(grid.D, ref.D)

    def test_tail_is_graded(self, bound_root):
        # BOUND's default inward sweep takes at most a third of the uniform
        # grid's steps, from the match node to exactly r_max, in steps that
        # start at the base step and never shrink outward, up to the
        # rounding of the nodes
        rc = radial_coefficients(BOUND, BOUND_STATE)
        cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05))
        (out, inw), (_, ref) = (oracle._sweeps(rc, cfg).r,
                                uniform_sweeps(rc, cfg).r)
        assert len(inw) - 1 <= (len(ref) - 1) / 3
        r_min, r_max, _ = oracle._truncation(BOUND)
        assert inw[0] == r_max and inw[-1] == out[-1]
        h = (r_max - r_min) / cfg.step_count
        steps = -np.diff(inw)[::-1]  # outward from the match node
        assert steps[0] == pytest.approx(h, rel=1e-9)
        assert np.all(np.diff(steps) >= -1e-12)
        # capped at 30 h, give or take the rounding to whole steps
        assert steps.max() <= 30.0 * h * (1.0 + 1.0 / len(steps))

    def test_interior_is_graded(self, bound_root):
        # the mirror of the tail: BOUND's default outward sweep takes at most
        # half of the uniform grid's steps, from exactly r_min to the match
        # node, in steps that start at the base step and never shrink toward
        # r_min, up to the rounding of the nodes
        rc = radial_coefficients(BOUND, BOUND_STATE)
        cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05))
        (out, inw), (ref, _) = (oracle._sweeps(rc, cfg).r,
                                uniform_sweeps(rc, cfg).r)
        assert len(out) - 1 <= (len(ref) - 1) / 2
        r_min, r_max, _ = oracle._truncation(BOUND)
        assert out[0] == r_min and out[-1] == ref[-1] == inw[-1]
        h = (r_max - r_min) / cfg.step_count
        steps = np.diff(out)[::-1]  # inward from the match node
        assert steps[0] == pytest.approx(h, rel=1e-9)
        assert np.all(np.diff(steps) >= -1e-12)
        assert steps.max() <= 30.0 * h * (1.0 + 1.0 / len(steps))

    def test_deep_well_interior_keeps_the_base_step(self):
        # at V0 = 1000, 1 / kappa_max is below the base step, so the
        # interior's steps stay at h
        p = replace(BOUND, V0=1000.0)
        root = solve_energy(p, BOUND_STATE).e_upper
        cfg = default_config(p, (root - 0.05, root + 0.05))
        out = oracle._sweeps(radial_coefficients(p, BOUND_STATE), cfg).r[0]
        r_min, r_max, _ = oracle._truncation(p)
        assert np.diff(out) == pytest.approx((r_max - r_min) / cfg.step_count,
                                             rel=1e-9)

    @pytest.mark.parametrize("offsets, step_count", [
        ((-0.5, 0.5), oracle.DEFAULT_STEP_COUNT),  # verify's bracket
        ((-0.05, -0.05 + 59 * 3.05 / 299), 10_000),  # oracle-ladder's scan
    ])
    def test_oscillatory_interior_is_uniform(self, bound_root, offsets,
                                             step_count):
        # a bracket whose top has U_in = U(f = 1) <= 0 allows an interior
        # that does not grow: the outward nodes are the uniform grid's
        rc = radial_coefficients(BOUND, BOUND_STATE)
        bracket = tuple(bound_root + d for d in offsets)
        assert rc.u(1.0, bracket[1]) <= 0.0
        cfg = default_config(BOUND, bracket, step_count=step_count)
        assert np.array_equal(oracle._sweeps(rc, cfg).r[0],
                              uniform_sweeps(rc, cfg).r[0])


# sha256 over repr of _shooting_outcomes(bound_root, 20_000), recorded when
# shoot_mismatch took the grid of its bracket widened to hold E: against the
# bracket's own grid before it, no eigenvalue moved, nor any mismatch inside
# its bracket; the two ground-cfg mismatches outside it, at bound_root + 0.3
# and + 1.0, moved by 3.1e-10 and 1.6e-5, to within 0 and 2.8e-17 of the
# uniform grid's value (3.1e-10 and 1.6e-5 away before), and the reference
# well's at -9.0, 0.0 and 9.5 by at most 2.2e-16, each within 3.4e-16 of it
# (the one at -9.0 moved away from it, by 2 ulp: rounding, at either grid).
# Re-recorded when the pass's tree took its renormalizing factors as powers of
# two, exact, in place of each matrix's max-abs entry: one eigenvalue moved,
# the fourth ladder state, by 8.9e-16 (1 ulp); the ground-cfg mismatches by at
# most 1.4e-14 (at + 0.3), and the reference well's by at most 2.2e-16.
# Re-recorded when the matrices became polynomials in E - E_ref, E_ref the
# bracket's midpoint: the third and fourth ladder states moved by +8.9e-16
# and -8.9e-16 (1 ulp each), no other eigenvalue moved; the ground-cfg
# mismatches inside the bracket by at most 3.3e-15, outside it by 7.0e-14
# (at + 0.3, 6 half-widths from E_ref) and 2.5e-16 (at + 1.0, whose widened
# bracket takes E_ref with it), and the reference well's by at most 5.6e-16
_SHOOTING_DIGEST = (
    "ddb5543b5767ee9d1d1c9b133f0d4eec44c7d97ee38a5e562c8378ed7ac52c79")
# the same outcomes at the default step count (6000), recorded then too: no
# eigenvalue moved; the ground-cfg mismatches at + 0.3 and + 1.0 moved by
# 3.9e-8 and 1.8e-3, to within 2.3e-16 and 8.4e-17 of the uniform grid's
# value, and the reference well's at -10.3, -9.0 and 9.5 by at most 1.4e-15,
# each within 2.3e-16 of it (-9.0 moved 1 ulp away from it).  Re-recorded
# with the powers of two too: no eigenvalue moved; the ground-cfg mismatches
# moved by at most 1.9e-15 (at + 0.3), and the reference well's by at most
# 1.1e-16.  Re-recorded with the polynomials too: the third ladder state
# moved by -8.9e-16 (1 ulp), no other eigenvalue moved; the ground-cfg
# mismatches inside the bracket by at most 3.1e-15, outside it by 6.0e-14 (at
# + 0.3) and 1.2e-15 (at + 1.0), and the reference well's by at most 8.3e-17
_SHOOTING_DIGEST_DEFAULT = (
    "ac83f2cd70eb19ba6f42382c3e54578c5de096b0a251e9c5f9255eb13216b428")


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


# sha256 over the bytes of shoot_eigenfunction's r and F, at each state and at
# its float, of test_eigenfunction_digest's cells, recorded when the grid held
# each step's h and the shape at every node and midpoint.  Re-recorded when
# the sweeps' scales became powers of two: BOUND's and RICHARDSON's cells kept
# every byte; F moved by at most 1.20e-16 of max|F| at depth 1e3 and 1.19e-16
# at 1e13, r by nothing
_EIGENFUNCTION_DIGEST = (
    "db8ccd273ce4f82774d2d562e12c4470696f23c538ad5ed695730bab74ffb0cc")


def test_eigenfunction_digest():
    # every node and amplitude, locked to the bit: BOUND's 0- and 1-node
    # states, RICHARDSON's ground state, and BOUND's geometry at depth 1e3,
    # whose outward amplitudes are rescaled, and at 1e13, whose trajectories'
    # transfer matrices are scaled
    cells = [(BOUND, (-0.05, 0.05)), (BOUND, (0.1, 0.4)),
             (RICHARDSON, (-0.05, 0.05)), (replace(BOUND, V0=1e3), (-0.5, 0.5)),
             (replace(BOUND, V0=1e13), (-0.5, 0.5))]
    digest = hashlib.sha256()
    for p, offsets in cells:
        e0 = solve_energy(p, BOUND_STATE).e_upper
        cfg = default_config(p, tuple(e0 + d for d in offsets))
        s, = find_eigenvalues(cfg, p, BOUND_STATE, count=1, scan_points=25,
                              tol=1e-11)
        for E in (s, float(s)):
            for x in shoot_eigenfunction(E, cfg, p, BOUND_STATE):
                digest.update(x.tobytes())
    assert digest.hexdigest() == _EIGENFUNCTION_DIGEST


def test_trajectory_steps_only_its_blocks(bound_root, monkeypatch):
    # BOUND's inward sweep at the default step count has 584 steps, 73 whole
    # blocks of _TRAJECTORY_BLOCK = 8: its trajectory builds their matrices,
    # not its 5 rows' 640 steps, whose pad blocks it would drop
    cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05))
    s, = find_eigenvalues(cfg, BOUND, BOUND_STATE, count=1, scan_points=25,
                          tol=1e-11)
    rc = radial_coefficients(BOUND, BOUND_STATE)
    assert len(oracle._sweeps(rc, cfg).r[1]) - 1 == 584
    built, entries = [], oracle._transfer_entries

    def traced(*args):
        T = entries(*args)
        built.append(T.shape[-1])
        return T

    monkeypatch.setattr(oracle, "_transfer_entries", traced)
    shoot_eigenfunction(s, cfg, BOUND, BOUND_STATE)  # the inward sweep alone
    assert built == [584]


def test_shape_evaluated_once_per_solve(bound_root, monkeypatch):
    # the shape factor does not depend on E: a solve evaluates it once, on
    # its grid, however many energies the scan and refinement try; the
    # eigenfunction of its state reuses that grid and the outward sweep at
    # the root, and integrates only the inward one.  A bare float builds both
    cfg = default_config(BOUND, (bound_root - 0.05, bound_root + 0.05))
    calls, sweeps = [], []
    traject = oracle._trajectory
    # the sweeps by their node counts, which differ
    directions = {len(r): d for d, r in enumerate(
        oracle._sweeps(radial_coefficients(BOUND, BOUND_STATE), cfg).r)}
    assert len(directions) == 2

    def counted(r, R, a):
        calls.append(np.size(r))
        return shape_factor(r, R, a)

    def traced(E, grid, d, slope0):
        sweeps.append(directions[len(grid.r[d])])
        return traject(E, grid, d, slope0)

    monkeypatch.setattr(oracle, "shape_factor", counted)
    monkeypatch.setattr(oracle, "_trajectory", traced)
    counts = {}
    for scan_points in (25, 40):
        calls.clear()
        sweeps.clear()
        eig, = find_eigenvalues(cfg, BOUND, BOUND_STATE, count=1,
                                scan_points=scan_points, tol=1e-11)
        shoot_eigenfunction(eig, cfg, BOUND, BOUND_STATE)
        counts[scan_points] = len(calls), list(sweeps)
        calls.clear()
        sweeps.clear()
        shoot_eigenfunction(float(eig), cfg, BOUND, BOUND_STATE)
        assert (len(calls), sweeps) == (1, [0, 1])
    assert counts[25] == counts[40] == (1, [0, 1])


def test_solves_leave_no_coefficients_alive(bound_root):
    # nothing of a solve may live on in a reference cycle (scipy's brentq
    # wrapper was one): with the collector off, refcounts alone must free it
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
