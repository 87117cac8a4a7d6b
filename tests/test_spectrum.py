"""Closed-form energy solve, independent root-finding routes and sweeps."""
from __future__ import annotations

import hashlib
import itertools
import math
import pickle
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wsdirac import (
    DegenerateSuperpotential,
    LadderSingular,
    PhysicalParams,
    QuantumState,
    SpectrumResult,
    SurfaceRegimeWarning,
    WsdiracError,
    derive_coefficients,
    energy_equation_residual,
    gamma,
    ground_state_energy,
    pekeris_coefficients,
    solve_energy,
    solve_energy_by_bracketing,
    solve_susy_parameters,
    sweep,
)

from wsdirac import spectrum
from wsdirac.checks import BRACKETING
from wsdirac.cli import main

from conftest import (
    BOUND,
    BOUND_STATE,
    DEGENERATE_STATE,
    NO_REAL_ROOT_STATE,
    random_valid_config,
    reference_params,
)


def per_cell_bracketing(p, state) -> list[float]:
    """Reference for solve_energy_by_bracketing: the same scans, but each
    sign-change cell re-scanned on its own, one residual call per re-scan."""
    e_lo, e_hi = -p.M - 50.0, p.M + 50.0
    for _ in range(200):
        grid = np.linspace(e_lo, e_hi, 400)
        vals = energy_equation_residual(grid, p, state)
        cells = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
        if cells.size or e_hi - e_lo < 1e-12 * max(1.0, abs(e_lo)):
            break
        i_min = int(np.argmin(vals))
        e_lo, e_hi = float(grid[max(i_min - 1, 0)]), float(grid[min(i_min + 1, 399)])
    roots = []
    for lo, hi in zip(grid[cells].tolist(), grid[cells + 1].tolist()):
        while hi - lo >= 1e-12 * 1e-3 * max(1.0, abs(lo)):
            sub = np.linspace(lo, hi, 400)
            vals = energy_equation_residual(sub, p, state)
            k = int(np.argmax(vals[:-1] * vals[1:] <= 0.0))
            lo, hi = sub[k:k + 2].tolist()
        roots.append(0.5 * (lo + hi))
    return roots


class TestSolveEnergy:
    def test_roots_zero_the_residual(self, rng):
        for _ in range(20):
            p, state, result = random_valid_config(rng)
            for E in (result.e_upper, result.e_lower):
                assert energy_equation_residual(E, p, state) == \
                    pytest.approx(0.0, abs=1e-8)

    def test_branch_selection(self):
        result = solve_energy(BOUND, BOUND_STATE)
        assert result.roots_real
        assert result.branch == "upper"
        assert result.e_upper >= result.e_lower
        assert result.e_binding == result.e_upper - BOUND.M

    def test_bound_configuration_normalizable(self):
        assert solve_energy(BOUND, BOUND_STATE).normalizable

    def test_reference_root_not_normalizable(self):
        # the selected root of the reference well has a growing analytic profile
        assert not solve_energy(reference_params(0.0), BOUND_STATE).normalizable

    def test_monotone_profile_not_normalizable(self):
        # A_n < 0 but A_n + B_n < 0: the profile falls from r = 0, no bound state
        monotone = replace(BOUND, alpha_prime=0.0)
        assert not solve_energy(monotone, QuantumState(0, 20, 1)).normalizable
        for n in (2, 3):
            assert not solve_energy(BOUND, QuantumState(n, 20, 3)).normalizable
        assert solve_energy(BOUND, QuantumState(1, 20, 3)).normalizable

    def test_no_real_root_reported_not_raised(self):
        result = solve_energy(reference_params(0.0), NO_REAL_ROOT_STATE)
        assert not result.roots_real
        assert result.e_upper is None and result.e_binding is None

    def test_overflowing_discriminant_raises(self):
        # at alpha' = 0 the depth squares past the float64 range, and the
        # discriminant is inf - inf: a typed error, not a NaN record, and no
        # RuntimeWarning (the test config makes one an error)
        with pytest.raises(OverflowError, match="discriminant overflows"):
            solve_energy(replace(BOUND, V0=1e200, alpha_prime=0.0), BOUND_STATE)

    @pytest.mark.parametrize("route", [
        ground_state_energy, solve_energy_by_bracketing,
        lambda p, state: energy_equation_residual(7.0, p, state),
    ], ids=["companion", "bracketing", "residual"])
    def test_overflowing_depth_raises_on_every_route(self, route):
        # the same well on the cross-check routes, each checking its own
        # numbers: an OverflowError naming the depth, and no RuntimeWarning
        with pytest.raises(OverflowError, match=r"at V0 = 1e\+200"):
            route(replace(BOUND, V0=1e200, alpha_prime=0.0), BOUND_STATE)

    @pytest.mark.filterwarnings("ignore::wsdirac.SurfaceRegimeWarning")
    @pytest.mark.parametrize("R, state, error", [
        (7.0, DEGENERATE_STATE, DegenerateSuperpotential),
        # gamma < 0 at ell = 0, D = 2, and R/a = 2.4 < 48^(1/4): B is not real
        (1.2, QuantumState(n=0, ell=0, D=2), DegenerateSuperpotential),
        # c2 = 48 gamma a^2/R^4 = 2/a^2 at alpha' = 0, so B = 1/a and B_1 = 0
        (0.5 * (24 * 420) ** 0.25, QuantumState(n=1, ell=20, D=3), LadderSingular),
    ], ids=["degenerate", "non-real-B", "ladder-singular"])
    def test_degenerate_raises(self, R, state, error):
        # every reader of the ladder's rule raises the same typed error
        p = replace(reference_params(0.0), R=R)
        with pytest.raises(error):
            solve_energy(p, state)
        with pytest.raises(error):
            energy_equation_residual(5.0, p, state)
        if state.n == 0:
            with pytest.raises(error):
                solve_susy_parameters(derive_coefficients(p, state),
                                      pekeris_coefficients(p.R, p.a), p, 5.0)
        cell, = sweep(p, [0.0], [state.D], [state.ell], [state.n])
        assert cell.result is None and cell.error == error.__name__

    @pytest.mark.parametrize("depth", [1e-6, 1.94e-6])
    def test_tiny_slope_is_degenerate_at_ground_level(self, capsys, depth):
        # B_0 is B: at depth 1e-6 |B| is under the degenerate threshold
        # 1e-12/(2a), at 1.94e-6 between it and the B_n threshold 1e-12/a;
        # both are one class for every reader and the CLI
        p = replace(reference_params(0.001), V0=depth)
        state = QuantumState(n=0, ell=0, D=3)
        with pytest.raises(DegenerateSuperpotential):
            solve_energy(p, state)
        with pytest.raises(DegenerateSuperpotential):
            energy_equation_residual(5.0, p, state)
        with pytest.raises(DegenerateSuperpotential):
            solve_susy_parameters(derive_coefficients(p, state),
                                  pekeris_coefficients(p.R, p.a), p, 5.0)
        cell, = sweep(p, [0.001], [3], [0], [0])
        assert cell.result is None and cell.error == "DegenerateSuperpotential"
        assert main(["solve", "--ell", "0", "--alpha-prime", "0.001",
                     "--depth", repr(depth)]) == 3
        assert capsys.readouterr().out == ""


class TestGroundStateRoute:
    def test_agrees_with_quadratic_route(self, rng):
        for _ in range(20):
            p, state, result = random_valid_config(rng)
            gs = ground_state_energy(p, state)
            assert gs.e_upper == pytest.approx(result.e_upper, abs=1e-10)
            assert gs.e_lower == pytest.approx(result.e_lower, abs=1e-10)

    def test_rejects_excited_states(self):
        with pytest.raises(ValueError):
            ground_state_energy(BOUND, QuantumState(n=1, ell=20, D=3))

    def test_no_real_root(self):
        gs = ground_state_energy(reference_params(0.0), NO_REAL_ROOT_STATE)
        assert not gs.roots_real


class TestBracketingRoute:
    def test_finds_both_roots(self):
        result = solve_energy(BOUND, BOUND_STATE)
        roots = solve_energy_by_bracketing(BOUND, BOUND_STATE)
        assert len(roots) == 2
        assert roots[0] == pytest.approx(result.e_lower, abs=1e-10)
        assert roots[1] == pytest.approx(result.e_upper, abs=1e-10)

    def test_empty_when_no_real_root(self):
        assert solve_energy_by_bracketing(reference_params(0.0),
                                          NO_REAL_ROOT_STATE) == []

    def test_resolves_sub_grid_root_pair(self):
        # the reference roots sit 0.17 fm^-1 apart, closer than the default
        # scan spacing; the vertex-refinement path must still split them
        p, state = reference_params(0.0), BOUND_STATE
        result = solve_energy(p, state)
        roots = solve_energy_by_bracketing(p, state)
        assert len(roots) == 2
        assert roots[1] == pytest.approx(result.e_upper, abs=1e-10)

    @pytest.mark.parametrize("p", [BOUND, reference_params(0.0)],
                             ids=["bound", "reference"])
    def test_scans_only(self, monkeypatch, p):
        # every residual call evaluates whole scan grids: the first scan, a
        # re-scan where both roots share a cell, then about six levels of
        # re-scans, each one call over both roots' cells
        calls = []
        residual = spectrum.energy_equation_residual

        def counted(E, *args):
            calls.append(np.ndim(E))
            return residual(E, *args)

        monkeypatch.setattr(spectrum, "energy_equation_residual", counted)
        assert len(solve_energy_by_bracketing(p, BOUND_STATE)) == 2
        assert len(calls) <= 16 and set(calls) == {1}

    def test_one_call_per_rescan_level(self, monkeypatch, rng):
        # the first scan, then one call per level of re-scans, which takes
        # both of BOUND's cells (six levels, not six calls per cell); every
        # root keeps the bits of re-scanning each cell on its own
        calls = []
        residual = spectrum.energy_equation_residual

        def counted(E, *args):
            calls.append(np.size(E))
            return residual(E, *args)

        monkeypatch.setattr(spectrum, "energy_equation_residual", counted)
        assert solve_energy_by_bracketing(BOUND, BOUND_STATE) == \
            per_cell_bracketing(BOUND, BOUND_STATE)
        assert calls == [400] + [800] * 6
        cases = [(reference_params(0.0), BOUND_STATE),
                 (BOUND, QuantumState(n=2, ell=20, D=3))]
        cases += [random_valid_config(rng)[:2] for _ in range(20)]
        for p, state in cases:
            assert solve_energy_by_bracketing(p, state) == \
                per_cell_bracketing(p, state)

    def test_gap_metric(self):
        gap = lambda p, state: BRACKETING.metric(p, state, solve_energy(p, state))
        assert gap(BOUND, BOUND_STATE) < BRACKETING.bound
        assert gap(reference_params(0.0), NO_REAL_ROOT_STATE) == 0.0


class TestSweep:
    def test_ordering_and_shape(self):
        cells = sweep(reference_params(0.0), [0.0, 0.01], [3], [20, 21], [0])
        assert [(c.alpha_prime, c.ell) for c in cells] == \
            [(0.0, 20), (0.0, 21), (0.01, 20), (0.01, 21)]
        assert all(c.error is None and c.result.roots_real for c in cells)

    def test_degenerate_cell_recorded(self):
        cells = sweep(reference_params(0.0), [0.0], [3], [0, 20], [0])
        assert cells[0].error == "DegenerateSuperpotential"
        assert cells[0].result is None
        assert cells[1].error is None

    def test_non_real_slope_cell_recorded(self):
        # gamma < 0 at ell = 0, D = 2, and R/a = 2.4 < 48^(1/4): B is not real
        with pytest.warns(SurfaceRegimeWarning):
            p = replace(reference_params(0.0), R=1.2)
        # building p warned; the sweep repeats none, also where it re-solves
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cells = sweep(p, [0.0, 0.01], [2], [0, 1], [0])
        assert [str(w.message) for w in caught] == []
        assert cells[0].error == "DegenerateSuperpotential"
        assert cells[0].result is None
        assert cells[1].error is None and cells[1].result.roots_real

    def test_no_real_root_cell_recorded(self):
        cells = sweep(reference_params(0.0), [0.0], [3], [5], [0])
        assert cells[0].error == "NoRealRoot"
        assert cells[0].result is not None and not cells[0].result.roots_real

    def test_overflow_cell_recorded(self):
        # V0 = 1e77 overflows the discriminant at alpha' = 0 only; the
        # deformed cells beside it are solve_energy's finite records
        p = replace(BOUND, V0=1e77)
        cells = sweep(p, [0.0, 0.001], [3], [20], [0, 1])
        assert [c.error for c in cells] == ["OverflowError"] * 2 + [None] * 2
        assert [c.result for c in cells[:2]] == [None, None]
        for c in cells[2:]:
            state = QuantumState(n=c.n, ell=c.ell, D=c.D)
            assert c.result == solve_energy(replace(p, alpha_prime=0.001), state)
            assert math.isfinite(c.result.e_upper)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            sweep(reference_params(0.0), [], [3], [20], [0])

    @pytest.mark.parametrize("dims, ells, ns, label", [
        ([3], [20], [0, 0.5], "n"),  # not only the least label is checked
        ([3], [20.5, 21], [0], "ell"),
        ([3, float("nan")], [20], [0], "D"),
        ([3], [20, -1], [0], "ell"),
        ([3], [20], [False], "n"),  # a bool is an Integral
    ])
    def test_rejects_non_integer_label(self, dims, ells, ns, label):
        with pytest.raises(ValueError, match=f"^{label} must be"):
            sweep(reference_params(0.0), [0.0], dims, ells, ns)

    def test_re_solves_only_the_typed_error_cells(self, monkeypatch):
        # the broadcast pass gives every outcome; solve_energy runs only to
        # name the typed error of a B = 0 or B_n = 0 cell
        calls = []
        original = spectrum.solve_energy

        def counted(p, state):
            calls.append((p.alpha_prime, state.D, state.ell, state.n))
            return original(p, state)

        monkeypatch.setattr(spectrum, "solve_energy", counted)
        p = replace(reference_params(0.0), R=_ladder_radius(0.5, 20, 3))
        cells = sweep(p, [0.0, 0.01], [3], [0, 5, 20], [0, 1])
        assert {c.error for c in cells} == {"DegenerateSuperpotential",
                                            "LadderSingular", "NoRealRoot", None}
        assert calls == [(c.alpha_prime, c.D, c.ell, c.n) for c in cells if
                         c.error in ("DegenerateSuperpotential", "LadderSingular")]


class TestRecords:
    def test_fields_are_read_only(self):
        result = solve_energy(BOUND, BOUND_STATE)
        cell, = sweep(BOUND, [BOUND.alpha_prime], [3], [20], [0])
        assert cell.result == result
        with pytest.raises(AttributeError):
            result.e_upper = 0.0
        with pytest.raises(AttributeError):
            cell.error = "NoRealRoot"
        assert cell.result == result and cell.error is None

    def test_derived_values_are_properties(self):
        # roots_real and branch follow from e_upper: no record can set them
        assert SpectrumResult._fields == ("e_upper", "e_lower", "e_binding",
                                          "normalizable")
        result = solve_energy(BOUND, BOUND_STATE)
        for name, value in [("roots_real", False), ("branch", None)]:
            with pytest.raises(ValueError, match=name):
                result._replace(**{name: value})
            with pytest.raises(AttributeError):
                setattr(result, name, value)
        no_root = solve_energy(reference_params(0.0), NO_REAL_ROOT_STATE)
        assert (result.roots_real, result.branch) == (True, "upper")
        assert (no_root.roots_real, no_root.branch) == (False, None)

    def test_records_behave_as_made_ones(self):
        # records built from the broadcast columns without _make: exact
        # instances whose named-tuple methods, pickling and equality are
        # those of the records _make builds from the same items, for rooted,
        # no-root, overflow and typed-error cells
        p = replace(reference_params(0.0), R=_ladder_radius(0.5, 20, 3))
        cells = sweep(p, [0.0, 0.01], [3], [0, 5, 20], [0, 1])
        cells += sweep(replace(BOUND, V0=1e77), [0.0, 0.001], [3], [20], [0])
        assert {c.error for c in cells} == {"DegenerateSuperpotential",
                                            "LadderSingular", "NoRealRoot",
                                            "OverflowError", None}
        results = [solve_energy(BOUND, BOUND_STATE),
                   solve_energy(reference_params(0.0), NO_REAL_ROOT_STATE)]
        results += [c.result for c in cells if c.result is not None]
        for record in [*cells, *results]:
            cls = type(record)
            assert cls in (spectrum.SweepCell, SpectrumResult)
            made = cls._make(tuple(record))
            assert record == made and hash(record) == hash(made)
            assert record._fields == made._fields == tuple(record._asdict())
            assert record._asdict() == made._asdict()
            first = cls._fields[0]
            assert record._replace(**{first: 0.0}) == made._replace(**{first: 0.0})
            assert type(record._replace(**{first: 0.0})) is cls
            loaded = pickle.loads(pickle.dumps(record))
            assert type(loaded) is cls and loaded == made
            assert repr(loaded) == repr(record) == repr(made)


class TestQuadraticConditioning:
    def test_residual_sign_structure(self):
        # residual is a downward-opening-free quadratic: positive far from
        # the roots, negative between them
        result = solve_energy(BOUND, BOUND_STATE)
        lo, hi = result.e_lower, result.e_upper
        mid = 0.5 * (lo + hi)
        assert energy_equation_residual(mid, BOUND, BOUND_STATE) < 0.0
        assert energy_equation_residual(lo - 1.0, BOUND, BOUND_STATE) > 0.0
        assert energy_equation_residual(hi + 1.0, BOUND, BOUND_STATE) > 0.0

    def test_roots_within_physical_window(self, rng):
        for _ in range(10):
            p, state, result = random_valid_config(rng)
            bound = math.sqrt(p.M**2 + 1.0) + 50.0
            assert abs(result.e_upper) < bound
            assert abs(result.e_lower) < bound


def _outcome(p, alpha, D, ell, n):
    """(error, repr of the record) from the scalar route, as a sweep cell has them."""
    try:
        r = solve_energy(replace(p, alpha_prime=alpha),
                         QuantumState(n=n, ell=ell, D=D))
    except WsdiracError as exc:
        return type(exc).__name__, repr(None)
    return (None if r.roots_real else "NoRealRoot"), repr(r)


def _ladder_radius(a, ell, D):
    # B - 1/a = 0 at alpha' = 0: the n = 1 ladder step is singular
    return a * (24.0 * gamma(QuantumState(0, ell, D))) ** 0.25


@st.composite
def _sweep_grids(draw):
    a = draw(st.floats(0.3, 0.9))
    ells = sorted(set(draw(st.lists(st.integers(0, 30), min_size=1, max_size=3))))
    dims = sorted(set(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))))
    ladder_cells = [(ell, D) for ell in ells for D in dims
                    if gamma(QuantumState(0, ell, D)) >= 30.0]
    if ladder_cells and draw(st.booleans()):
        R = _ladder_radius(a, *draw(st.sampled_from(ladder_cells)))
    else:
        R = a * draw(st.floats(5.0, 15.0))
    p = PhysicalParams(
        M=draw(st.floats(2.0, 10.0)), a=a, R=R,
        V0=draw(st.one_of(st.just(0.0), st.floats(-12.0, 12.0))),
        E0=draw(st.floats(1.0, 12.0)), alpha_prime=0.0,
    )
    alphas = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 0.01)),
                           min_size=1, max_size=3))
    ns = sorted(set(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))))
    return p, alphas, dims, ells, ns


class TestSweepMatchesScalar:
    @settings(max_examples=150, deadline=None, database=None)
    @given(_sweep_grids())
    # the corners: DegenerateSuperpotential (alpha' = 0, ell = 0, D = 3),
    # LadderSingular (R = a (24 gamma)^(1/4), n = 1), V0 = 0 and NoRealRoot
    @example((reference_params(0.0), [0.0, 0.01], [3], [0, 5, 20], [0, 1]))
    @example((replace(reference_params(0.0), R=_ladder_radius(0.5, 20, 3)),
              [0.0], [3], [20], [0, 1, 2]))
    @example((replace(BOUND, V0=0.0), [0.0, 0.0015], [1, 3], [0, 20], [0, 2]))
    def test_every_cell_equals_scalar_solve(self, grid):
        p, alphas, dims, ells, ns = grid
        cells = sweep(p, alphas, dims, ells, ns)
        assert [(c.alpha_prime, c.D, c.ell, c.n) for c in cells] == \
            list(itertools.product(alphas, dims, ells, ns))
        for c in cells:
            assert (c.error, repr(c.result)) == \
                _outcome(p, c.alpha_prime, c.D, c.ell, c.n)

    def test_examples_reach_the_corners(self):
        ref = reference_params(0.0)
        assert _outcome(ref, 0.0, 3, 0, 0)[0] == "DegenerateSuperpotential"
        assert _outcome(ref, 0.0, 3, 5, 0)[0] == "NoRealRoot"
        singular = replace(ref, R=_ladder_radius(0.5, 20, 3))
        assert _outcome(singular, 0.0, 3, 20, 1)[0] == "LadderSingular"
        # V0 = 0: the linear coefficient a1 = 2 p q is a signed zero
        assert _outcome(replace(BOUND, V0=0.0), 0.0, 3, 20, 0)[0] is None


# sha256 over repr of every cell outcome of _digest_grids(), recorded from the
# per-cell scalar implementation the array-native sweep replaced
_DIGEST = "a83a7f06fa5291bcae666e4193519647b185567a23fa79c2f1d021e007045f7c"


def _digest_grids():
    ref = reference_params(0.0)
    return [
        (ref, [0.0, 0.001, 0.005, 0.01], [1, 2, 3, 4, 5], [0, 1, 5, 20, 24],
         [0, 1, 2, 3]),
        (BOUND, [0.0, 0.0015, 0.005], [1, 2, 3], [0, 2, 20], [0, 1, 2, 3]),
        (replace(ref, R=_ladder_radius(0.5, 20, 3)), [0.0, 0.002], [3],
         [0, 20], [0, 1, 2]),
        (replace(BOUND, V0=0.0), [0.0, 0.0015], [1, 3], [0, 3, 20], [0, 1]),
        (PhysicalParams(M=3.7, a=0.41, R=5.3, V0=-7.9, E0=2.2,
                        alpha_prime=0.0),
         [0.0, 0.0037, 0.0091], [1, 2, 4], [1, 7, 13, 29], [0, 1, 3]),
    ]


def test_sweep_outcomes_digest():
    h = hashlib.sha256()
    for p, *grids in _digest_grids():
        for c in sweep(p, *grids):
            r = c.result
            h.update(repr((c.alpha_prime, c.D, c.ell, c.n, c.error,
                           None if r is None else (
                               r.e_upper, r.e_lower, r.e_binding, r.branch,
                               r.roots_real, r.normalizable))).encode())
    assert h.hexdigest() == _DIGEST


@pytest.mark.parametrize("p", [BOUND, reference_params(0.0)],
                         ids=["bound", "reference"])
def test_sweep_interdimensional_degeneracy(p):
    # gamma = ((2 ell + D - 2)^2 - 1)/4 sees (ell, D) only through 2 ell + D,
    # so cell (ell, D) must equal cell (ell + 1, D - 2) to the bit
    cells = {(c.alpha_prime, c.D, c.ell, c.n): c
             for c in sweep(p, [0.0, 0.0015, 0.01], list(range(1, 9)),
                            list(range(21)), [0, 1, 2])}
    pairs = [(c, cells[(a, D - 2, ell + 1, n)])
             for (a, D, ell, n), c in cells.items() if D >= 3 and ell < 20]
    assert len(pairs) == 3 * 6 * 20 * 3
    for c, twin in pairs:
        assert (c.error, repr(c.result)) == (twin.error, repr(twin.result))


@pytest.mark.parametrize("alphas", [[1.5], [0.0, -0.001]])
def test_sweep_rejects_out_of_range_alpha(alphas):
    with pytest.raises(ValueError):
        sweep(reference_params(0.0), alphas, [3], [20], [0])
