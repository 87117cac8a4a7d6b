"""Shared fixtures: reference parameter set, frozen table values, samplers."""
from __future__ import annotations

import numpy as np
import pytest

from wsdirac import (
    DegenerateSuperpotential,
    PhysicalParams,
    QuantumState,
    radial_coefficients,
    slope_parameter,
    solve_energy,
)

# reference parameter set: M = 10 fm^-1, a = 0.5 fm, R = 7 fm, V0 = -10 fm^-1,
# E0 = 10 fm^-1
REFERENCE = dict(M=10.0, a=0.5, R=7.0, V0=-10.0, E0=10.0)

TABLE_ALPHAS = [0.0, 0.001, 0.005, 0.01]

# binding energies E_b (fm^-1), rows D = 1..5, columns TABLE_ALPHAS, ell = 20
TABLE1 = {
    1: [-20.15403, -6.29935, -1.56183, -0.77031],
    2: [-20.13403, -6.28549, -1.54786, -0.75579],
    3: [-20.11635, -6.27129, -1.53355, -0.74091],
    4: [-20.09900, -6.25677, -1.51892, -0.72570],
    5: [-20.08128, -6.24192, -1.50396, -0.71014],
}

# binding energies E_b (fm^-1), rows ell = 20..24, columns TABLE_ALPHAS, D = 3
TABLE2 = {
    20: [-20.11635, -6.27129, -1.53355, -0.74091],
    21: [-20.08128, -6.24192, -1.50396, -0.71014],
    22: [-20.04353, -6.21126, -1.47306, -0.67802],
    23: [-20.00178, -6.17930, -1.44088, -0.64455],
    24: [-19.95546, -6.14608, -1.40742, -0.60975],
}


def reference_params(alpha_prime: float) -> PhysicalParams:
    return PhysicalParams(alpha_prime=alpha_prime, **REFERENCE)


# attractive-well configuration with a genuine bound ground state
# (decaying analytic amplitude: A < 0 < A + B)
BOUND = PhysicalParams(M=10.0, a=0.5, R=7.0, V0=10.0, E0=10.0,
                       alpha_prime=0.0015)
BOUND_STATE = QuantumState(n=0, ell=20, D=3)

# same well at a deformation where the shooting discretization error is
# large enough to resolve the integrator's convergence order
RICHARDSON = PhysicalParams(M=10.0, a=0.5, R=7.0, V0=10.0, E0=10.0,
                            alpha_prime=0.005)

# complex-eigenvalue regime (small ell at zero deformation)
NO_REAL_ROOT_STATE = QuantumState(n=0, ell=5, D=3)

# collapsing factorization: v = 0 and gamma = 0
DEGENERATE_STATE = QuantumState(n=0, ell=0, D=3)


def random_valid_config(rng: np.random.Generator):
    """One random non-degenerate configuration with a real upper root.

    Magnitudes are kept moderate (B >= 1) so that absolute residual
    tolerances of 1e-10 are meaningful against double-precision rounding.
    """
    while True:
        a = rng.uniform(0.3, 0.9)
        p = PhysicalParams(
            M=rng.uniform(2.0, 10.0),
            a=a,
            R=a * rng.uniform(5.0, 15.0),
            V0=rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 10.0),
            E0=rng.uniform(1.0, 12.0),
            alpha_prime=rng.uniform(0.0, 0.005),
        )
        state = QuantumState(n=0, ell=int(rng.integers(0, 26)),
                             D=int(rng.integers(1, 6)))
        rc = radial_coefficients(p, state)
        B = slope_parameter(rc.c2, p.a)
        if B < 1.0:
            continue
        try:
            result = solve_energy(p, state)
        except DegenerateSuperpotential:
            continue
        if not result.roots_real:
            continue
        if abs(result.e_upper - result.e_lower) < 1e-4:
            continue  # near-tangent quadratic, ill-conditioned for comparisons
        return p, state, result


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)


# scoreboard lines recorded by the acceptance tests, echoed after the run
# (fd-level capture would otherwise swallow them for passing tests)
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
