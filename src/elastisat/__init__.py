"""Galerkin-reduced simulator for a dissipative elastic satellite.

The deformation of an ellipsoidal body orbiting a fixed point mass is
expanded in vector polynomials; the reduced dynamics conserves angular
momentum exactly, dissipates energy through Kelvin-Voigt viscosity, and
admits synchronous relative equilibria that the solver and classifier
in this package locate and detect.
"""

__version__ = "0.1.0"  # the one source: pyproject.toml and every manifest read it

from types import ModuleType as _ModuleType

from .body_model import (
    DeformationBasis,
    DeformationState,
    ReferenceBody,
    build_ellipsoid_body,
    ellipsoid_quadrature,
    evaluate_map,
    identity_coefficients,
    mass_matrix,
    monomial_exponents,
    rigid_state,
    skew,
)
from .classifier import (
    CaptureMetrics,
    CaptureThresholds,
    Classification,
    Outcome,
    capture_metrics,
    classify_outcome,
    group_orbit_distance,
    two_body_energy,
    windowed_dissipation,
)
from .dissipation import (
    ViscosityParams,
    cauchy_green_rate,
    dissipation_rate,
    max_cauchy_green_rate,
    viscous_force,
)
from .dynamics import (
    IntegratorSettings,
    Trajectory,
    comoving_decomposition,
    equations_of_motion,
    instantaneous_spin,
    integrate,
)
from .energetics import (
    EnergyBreakdown,
    MaterialParams,
    angular_momentum,
    conservative_force,
    elastic_energy,
    energy_breakdown,
    force_kernel,
    gravitational_energy,
    gravity_third_derivatives,
    kinetic_energy,
    kirchhoff_stress,
    self_gravity_energy,
    stored_energy_density,
)
from .equilibria import (
    NondegeneracyReport,
    RelativeEquilibrium,
    RigidBodyModel,
    RigidEquilibrium,
    augmented_hamiltonian,
    nondegeneracy_spectrum,
    rigid_quadrupole_catalog,
    solve_relative_equilibrium,
    synchronous_guess,
)
from .errors import (
    ConfigError,
    DegenerateBasisError,
    DegenerateCatalogError,
    ElastisatError,
    ImpactProximityError,
    InsufficientDataError,
    InvalidParameterError,
    NoConvergenceError,
    SingularConfigurationError,
)
from .scenario import Scenario, load_scenario, load_sweep, scenario_from_mapping, sweep_point

# Every public name the import block binds, so each export is stated once, in that block.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
