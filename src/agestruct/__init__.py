"""Nonlinear age-structured population dynamics.

Separable density-dependent vital rates admit an exact reduction of the
age-density transport equation to a small ODE system for the population
size and a handful of weighted age moments. This package provides that
reduction, its equilibria and local stability, reconstruction of the full
age profile, and an independent integral-equation solver for
cross-validation.

Importing the package loads only ``errors``; each other submodule, and each
public name below, is loaded on first access (PEP 562), so a process pays
only for the solvers it uses.
"""

import importlib

from . import errors

__version__ = "0.1.0"

# every submodule, with the public names the package exposes from it
_EXPORTS = {
    "cli": (),
    "config": (),
    "csvio": (),
    "errors": (
        "AgestructError", "BracketDivergenceError", "ConfigSchemaError", "ConvergenceError",
        "EigenvalueError", "NegativityError", "ParameterError", "StepSizeError", "TrajectoryRangeError",
    ),
    "model": (
        "ExponentialDensity", "FeedbackSpec", "ModelParams", "TabulatedDensity", "density_moments",
        "fertility_age_profile", "make_phi", "make_psi", "normalize_betas",
    ),
    "oracle": (
        "CrossValidationReport", "GeneralModel", "OracleSolution", "cross_validate", "from_separable",
        "volterra_solve",
    ),
    "quadrature": (),
    "reconstruct": (
        "ConsistencyReport", "DensityField", "characteristic_jump", "consistency_check", "default_age_grid",
        "reconstruct_density",
    ),
    "reduction": ("Trajectory", "birth_rate", "integrate", "rhs"),
    "stability": ("StabilityReport", "classify", "classify_trivial", "eigenvalues", "jacobian_at"),
    "steady": (
        "EquilibriumReport", "SweepPoint", "bifurcation_sweep", "equilibrium", "net_reproduction",
        "reproduction_derivative", "steady_state", "trivial_equilibrium",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
