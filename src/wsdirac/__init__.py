"""Bound states of the D-dimensional Dirac equation with a Woods-Saxon well
under a minimal-length deformation: closed-form spectrum, analytic ground
state and an independent shooting cross-check."""

from .errors import (
    DegenerateSuperpotential,
    IntegrationBlowup,
    LadderSingular,
    NoEigenvalueInBracket,
    NoRealRoot,
    NotBoundRegime,
    NotNormalizable,
    WsdiracError,
)
from .oracle import (
    ShootingConfig,
    default_config,
    find_eigenvalues,
    shoot_eigenfunction,
    shoot_mismatch,
)
from .params import (
    DerivedCoefficients,
    PhysicalParams,
    QuantumState,
    RadialCoefficients,
    SurfaceRegimeWarning,
    derive_coefficients,
    gamma,
    radial_coefficients,
)
from .pekeris import (
    PekerisCoefficients,
    centrifugal_surrogate,
    pekeris_coefficients,
    shape_factor,
    taylor_match_report,
)
from .spectrum import (
    SpectrumResult,
    SweepCell,
    energy_equation_residual,
    ground_state_energy,
    solve_energy,
    solve_energy_by_bracketing,
    sweep,
)
from .susyqm import (
    SusyParameters,
    closed_form_A,
    ladder,
    partner_potentials,
    remainder,
    shifted_A,
    slope_parameter,
    solve_susy_parameters,
    superpotential,
)
from .wavefunction import (
    RadialWaveFunction,
    evaluate,
    log_profile,
    normalize,
    ode_residual,
    second_derivative,
)

__version__ = "0.1.0"
