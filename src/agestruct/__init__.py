"""Nonlinear age-structured population dynamics.

Separable density-dependent vital rates admit an exact reduction of the
age-density transport equation to a small ODE system for the population
size and a handful of weighted age moments. This package provides that
reduction, its equilibria and local stability, reconstruction of the full
age profile, and an independent integral-equation solver for
cross-validation.
"""

__version__ = "0.1.0"

from .errors import (
    AgestructError,
    BracketDivergenceError,
    ConfigSchemaError,
    ConvergenceError,
    EigenvalueError,
    NegativityError,
    ParameterError,
    StepSizeError,
    TrajectoryRangeError,
)
from .model import (
    ExponentialDensity,
    FeedbackSpec,
    ModelParams,
    TabulatedDensity,
    density_moments,
    fertility_age_profile,
    make_phi,
    make_psi,
    normalize_betas,
)
from .oracle import (
    CrossValidationReport,
    GeneralModel,
    OracleSolution,
    cross_validate,
    from_separable,
    volterra_solve,
)
from .reconstruct import (
    ConsistencyReport,
    DensityField,
    characteristic_jump,
    consistency_check,
    default_age_grid,
    reconstruct_density,
)
from .reduction import Trajectory, birth_rate, integrate, rhs
from .stability import (
    StabilityReport,
    classify,
    classify_trivial,
    eigenvalues,
    jacobian_at,
)
from .steady import (
    EquilibriumReport,
    SweepPoint,
    bifurcation_sweep,
    equilibrium,
    net_reproduction,
    reproduction_derivative,
    steady_state,
    trivial_equilibrium,
)

__all__ = [
    "__version__",
    "AgestructError",
    "BracketDivergenceError",
    "ConfigSchemaError",
    "ConsistencyReport",
    "ConvergenceError",
    "CrossValidationReport",
    "DensityField",
    "EigenvalueError",
    "EquilibriumReport",
    "ExponentialDensity",
    "FeedbackSpec",
    "GeneralModel",
    "ModelParams",
    "NegativityError",
    "OracleSolution",
    "ParameterError",
    "StabilityReport",
    "StepSizeError",
    "SweepPoint",
    "TabulatedDensity",
    "Trajectory",
    "TrajectoryRangeError",
    "bifurcation_sweep",
    "birth_rate",
    "characteristic_jump",
    "classify",
    "classify_trivial",
    "consistency_check",
    "cross_validate",
    "default_age_grid",
    "density_moments",
    "eigenvalues",
    "equilibrium",
    "fertility_age_profile",
    "from_separable",
    "integrate",
    "jacobian_at",
    "make_phi",
    "make_psi",
    "net_reproduction",
    "normalize_betas",
    "reconstruct_density",
    "reproduction_derivative",
    "rhs",
    "steady_state",
    "trivial_equilibrium",
    "volterra_solve",
]
