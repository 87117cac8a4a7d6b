"""Input validation and derived-coefficient algebra."""
from __future__ import annotations

import dataclasses
import itertools
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from wsdirac import (
    PhysicalParams,
    QuantumState,
    SurfaceRegimeWarning,
    derive_coefficients,
    gamma,
    pekeris_coefficients,
    radial_coefficients,
    solve_energy,
)

from conftest import BOUND, BOUND_STATE, reference_params


class TestPhysicalParams:
    def test_accepts_reference_values(self):
        p = reference_params(0.005)
        assert p.M == 10.0 and p.V0 == -10.0 and p.alpha_prime == 0.005

    @pytest.mark.parametrize("field,value", [
        ("a", 0.0), ("a", -0.5), ("R", 0.0), ("R", -7.0),
        ("alpha_prime", -1e-6), ("alpha_prime", 1.5),
        # NaN passes every ordering test; each field must be finite
        ("M", float("nan")), ("a", float("nan")), ("R", float("inf")),
        ("V0", float("inf")), ("V0", float("-inf")), ("E0", float("nan")),
        ("alpha_prime", float("nan")),
    ])
    def test_rejects_invalid(self, field, value):
        kwargs = dict(M=10.0, a=0.5, R=7.0, V0=-10.0, E0=10.0, alpha_prime=0.0)
        kwargs[field] = value
        with pytest.raises(ValueError):
            PhysicalParams(**kwargs)

    def test_thick_surface_warns(self):
        with pytest.warns(SurfaceRegimeWarning) as caught:
            PhysicalParams(M=10.0, a=2.0, R=7.0, V0=-10.0, E0=10.0,
                           alpha_prime=0.0)
        # the warning names the line that built the params
        assert caught[0].filename == __file__

    def test_thin_surface_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reference_params(0.0)

    def test_frozen(self):
        p = reference_params(0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.M = 1.0


class TestQuantumState:
    @pytest.mark.parametrize("n,ell,D", [(-1, 0, 3), (0, -1, 3), (0, 0, 0)])
    def test_rejects_invalid(self, n, ell, D):
        with pytest.raises(ValueError):
            QuantumState(n=n, ell=ell, D=D)

    def test_accepts_boundary(self):
        QuantumState(n=0, ell=0, D=1)

    @pytest.mark.parametrize("label,value", [
        ("n", 0.5), ("ell", 20.5), ("D", 2.5), ("D", float("nan")),
        ("n", True), ("ell", False), ("D", True),  # a bool is an Integral
    ])
    def test_rejects_non_integer_label(self, label, value):
        # a fractional label names no state, though the closed form would
        # solve it (n = 0.5 on the attractive well to a root flagged bound)
        labels = {"n": 0, "ell": 20, "D": 3, label: value}
        with pytest.raises(ValueError, match=f"^{label} must be an integer"):
            QuantumState(**labels)

    def test_accepts_numpy_integers(self):
        # stored as ints, so a narrow type cannot wrap in gamma's products
        state = QuantumState(n=np.int64(1), ell=np.uint8(20), D=np.uint8(1))
        assert state == QuantumState(n=1, ell=20, D=1)
        assert all(type(v) is int for v in (state.n, state.ell, state.D))
        assert gamma(state) == gamma(QuantumState(1, 20, 1))


class TestGamma:
    def test_three_dimensional_reduces_to_ell_ell_plus_one(self):
        for ell in range(6):
            assert gamma(QuantumState(0, ell, 3)) == ell * (ell + 1)

    def test_one_dimensional(self):
        for ell in range(6):
            assert gamma(QuantumState(0, ell, 1)) == ell * (ell - 1)

    def test_two_dimensional(self):
        assert gamma(QuantumState(0, 3, 2)) == 9 - 0.25

    def test_dimension_ell_symmetry(self):
        # gamma depends on D and ell only through 2 ell + D
        assert gamma(QuantumState(0, 20, 5)) == gamma(QuantumState(0, 21, 3))


class TestDerivedCoefficients:
    def test_formulas(self):
        p = reference_params(0.005)
        dc = derive_coefficients(p, QuantumState(0, 20, 3))
        ml = p.E0**2 - p.M**2
        assert dc.gamma == 420.0
        assert dc.v == pytest.approx(2 * 0.005 * 100.0 * 400.0, rel=1e-15)
        assert dc.ml_quartic == pytest.approx(2 * 0.005 * ml * ml, rel=1e-15)
        assert dc.kappa_const == pytest.approx(p.V0 * 4 * 0.005 * ml * (p.E0 + p.M),
                                               rel=1e-15)

    def test_massless_deformation_terms_vanish_when_e0_equals_m(self):
        # E0 = M kills every (E0^2 - M^2) factor
        dc = derive_coefficients(reference_params(0.01), QuantumState(0, 20, 3))
        assert dc.ml_quartic == 0.0
        assert dc.kappa_const == 0.0
        assert dc.v > 0.0

    def test_zero_deformation(self):
        dc = derive_coefficients(reference_params(0.0), QuantumState(0, 20, 3))
        assert dc.v == 0.0 and dc.ml_quartic == 0.0 and dc.kappa_const == 0.0


class TestRadialCoefficients:
    def test_u_matches_hand_written_U(self):
        ell, D = BOUND_STATE.ell, BOUND_STATE.D
        f = np.linspace(0.0, 1.0, 41)
        # BOUND has E0 = M; the second well keeps the (E0^2 - M^2) terms
        for p in (BOUND, dataclasses.replace(BOUND, E0=12.0, alpha_prime=0.005)):
            g = (4 * ell * (ell + D - 2) + (D - 1) * (D - 3)) / 4 / p.R**2
            w = p.R / p.a
            ml = p.E0**2 - p.M**2
            rc = radial_coefficients(p, BOUND_STATE)
            for E in np.linspace(-15.0, 15.0, 7):
                kappa = (p.V0 * 4 * p.alpha_prime * ml * (p.E0 + p.M)
                         - p.V0 * (E + p.M))
                U = (2 * p.alpha_prime * ml**2 - (E**2 - p.M**2)
                     + g * (1 - 4 / w + 12 / w**2)
                     + (kappa + g * (8 / w - 48 / w**2)) * f
                     + (2 * p.alpha_prime * p.V0**2 * (p.E0 + p.M)**2
                        + g * 48 / w**2) * f**2)
                assert np.max(np.abs(rc.u(f, E) - U)) <= 1e-13 * np.max(np.abs(U))

    def test_broadcast_equals_per_cell_records(self):
        alphas, ells, dims = [0.0, 0.0015, 0.01], [0, 1, 20, 24], [1, 2, 3, 5]
        alpha, ell, D = np.ix_(*(np.asarray(g, dtype=float)
                                 for g in (alphas, ells, dims)))
        # PhysicalParams takes no array alpha_prime; the sweep's stand-in does
        cells = SimpleNamespace(**{**vars(BOUND), "alpha_prime": alpha},
                                ell=ell, D=D)
        grid = radial_coefficients(cells, cells)
        shape = (len(alphas), len(ells), len(dims))
        for (i, a), (j, l), (k, d) in itertools.product(
                *map(enumerate, (alphas, ells, dims))):
            one = radial_coefficients(dataclasses.replace(BOUND, alpha_prime=a),
                                      QuantumState(0, l, d))
            for name in ("c0_const", "c2", "frak_u0"):
                cell = np.broadcast_to(getattr(grid, name), shape)[i, j, k]
                assert float(cell).hex() == float(getattr(one, name)).hex()


class TestOverflowMessages:
    # float pow raises OverflowError with an errno tuple for its message; each
    # site re-raises it naming the coefficient and its inputs
    @pytest.mark.parametrize("changes, message", [
        (dict(M=1e200),
         r"v overflows .* \(E0 \+ M\)\^2 at E0 = 10.0, M = 1e\+200"),
        (dict(E0=1e160, alpha_prime=0.5),
         r"v overflows .* \(E0 \+ M\)\^2 at E0 = 1e\+160, M = 10.0"),
        (dict(R=1e308, a=1e307),
         r"radial coefficients overflow .* R\^2 at R = 1e\+308"),
    ])
    def test_solve_energy_names_the_coefficient(self, changes, message):
        p = dataclasses.replace(BOUND, **changes)
        with pytest.raises(OverflowError, match=message):
            solve_energy(p, BOUND_STATE)

    @pytest.mark.parametrize("R, a", [(7.0, 1e-200), (1e300, 0.5)])
    def test_surrogate_names_its_inputs(self, R, a):
        with pytest.raises(OverflowError,
                           match=re.escape(f"(R/a)^2 at R = {R}, a = {a}")):
            pekeris_coefficients(R, a)

    @pytest.mark.parametrize("R, a, message", [
        (1e300, 1e-10, "R/a = inf leaves the float64 range at R = 1e+300, "
                       "a = 1e-10"),
        (1e-200, 1e200, "R/a = 0.0 leaves the float64 range at R = 1e-200, "
                        "a = 1e+200"),
        (1e-320, 0.5, "(R/a)^2 underflows to 0 at R = 1e-320, a = 0.5"),
        (1e-300, 1e-301, "R^2 underflows to 0 at R = 1e-300"),
        (1e-150, 1e-165, "a^2 underflows to 0 at a = 1e-165"),
    ])
    @pytest.mark.filterwarnings("ignore::wsdirac.SurfaceRegimeWarning")
    def test_square_leaving_the_range_is_named(self, R, a, message):
        # an infinite R/a would give c = (1, 0, 0) and NaN Taylor terms that
        # max drops; a square that underflows to 0 would end in a float
        # division by zero
        p = dataclasses.replace(BOUND, R=R, a=a)
        with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
            solve_energy(p, BOUND_STATE)

    def test_deformation_square_may_underflow(self):
        # (E0 + M)^2 only multiplies into v, so its underflow to 0 is v = 0,
        # not an error; its overflow is still named
        p = dataclasses.replace(BOUND, M=0.0, E0=1e-170)
        assert derive_coefficients(p, BOUND_STATE).v == 0.0
        p = dataclasses.replace(BOUND, M=0.0, E0=1e200)
        with pytest.raises(OverflowError, match=re.escape(
                "the deformation coefficient v overflows the float64 range: "
                "(E0 + M)^2 at E0 = 1e+200, M = 0.0")):
            derive_coefficients(p, BOUND_STATE)
