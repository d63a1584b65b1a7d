"""Age-density reconstruction along characteristics.

A finished trajectory carries everything the characteristic formula needs:
the birth-rate history and the running feedback-mortality integral. The
density at time t splits at the line a = t into a survived-initial-cohort
branch and a renewal branch; both are evaluated pointwise here, and the
mass check integrates the result back against the trajectory's total
population.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .model import FeedbackSpec, InitialDensity, ModelParams
from .quadrature import default_age_length, simpson, uniform_grid, uniform_steps
from .reduction import Trajectory, _births

#: floor used in the relative-error denominator so an all-zero population
#: compares as exactly consistent instead of dividing by zero
MASS_FLOOR = 1e-12


@dataclass(frozen=True)
class DensityField:
    """Age profile of the population density at one instant."""

    age_grid: np.ndarray
    time: float
    values: np.ndarray

    def __post_init__(self):
        ages = np.asarray(self.age_grid, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if ages.ndim != 1 or ages.size < 2:
            raise ParameterError("age_grid must be 1-d with at least two nodes")
        if np.any(np.diff(ages) <= 0) or ages[0] < 0:
            raise ParameterError("age_grid must be nonnegative and strictly increasing")
        if vals.shape != ages.shape:
            raise ParameterError("values must match age_grid in shape")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ParameterError("density values must be finite and nonnegative")
        object.__setattr__(self, "age_grid", ages)
        object.__setattr__(self, "values", vals)

    def mass(self) -> float:
        """Composite-Simpson integral of the profile over the grid."""
        return simpson(self.values, self.age_grid)


def _survival(traj: Trajectory, t: float) -> float:
    """Survival factor exp(-mu0*t - Z(t)) on the characteristic a = t."""
    return math.exp(-traj.params.mu0 * t - traj.psi_integral_at(t))


def _renewal(traj: Trajectory, t: float, a: np.ndarray) -> np.ndarray:
    """Renewal branch B(t - a) * exp(-mu0*a - [Z(t) - Z(t - a)]) at ages 0 <= a <= t."""
    rows = traj._read(t - a)[0]  # one read of the dense output for B(t - a) and Z(t - a)
    decay = np.exp(-traj.params.mu0 * a - np.maximum(traj.psi_integral_at(t) - rows[:, -1], 0.0))
    return _births(rows[:, :-1], traj.params, traj.feedback) * decay


def default_age_grid(traj: Trajectory, p0: InitialDensity, step: float = 0.01) -> np.ndarray:
    """Age grid [0, default_age_length(traj.t_end, p0, step)] at ``step``."""
    return uniform_grid(default_age_length(traj.t_end, p0, step), step)


def reconstruct_density(
    traj: Trajectory,
    p0: InitialDensity,
    params: ModelParams,
    feedback: FeedbackSpec,
    t: float,
    age_grid,
) -> DensityField:
    """Evaluate p(a, t) on an age grid from the trajectory's histories.

    Ages at or above t carry the initial density forward with the survival
    factor exp(-mu0*t - Z(t)); younger ages carry the birth rate B(t - a)
    with exp(-mu0*a - [Z(t) - Z(t-a)]), where Z is the trajectory's running
    feedback-mortality integral. Off-sample B and Z come from the dense
    output. ``params`` and ``feedback`` must be the trajectory's own
    (ParameterError otherwise); the rates come from the trajectory.
    """
    if params != traj.params or feedback != traj.feedback:
        raise ParameterError("params and feedback must be the trajectory's own")
    ages = np.asarray(age_grid, dtype=float)
    t = float(t)
    old = ages >= t
    values = np.empty_like(ages)
    values[old] = p0.evaluate(ages[old] - t) * _survival(traj, t)  # range-checks t
    values[~old] = _renewal(traj, t, ages[~old])
    return DensityField(age_grid=ages, time=t, values=values)


def characteristic_jump(traj: Trajectory, p0: InitialDensity, t: float) -> float:
    """Size of the density jump across the characteristic a = t.

    Both branches share the full survival factor at a = t, so the jump is
    that factor times |p0(0) - B(0)|; it is zero exactly when the initial
    data are compatible with the initial birth rate.
    """
    return _survival(traj, float(t)) * abs(float(p0.evaluate(0.0)) - traj.birth_rate_at(0.0))


@dataclass(frozen=True)
class ConsistencyReport:
    """Mass-balance check of a reconstructed profile against P(t)."""

    relative_mass_error: float
    grid_mass: float
    tail_mass: float
    reference_mass: float


def consistency_check(field: DensityField, traj: Trajectory, p0: InitialDensity) -> ConsistencyReport:
    """Compare the integrated age profile with the trajectory's P(t).

    Integration is composite Simpson over the grid; when the characteristic
    a = t lies past the first grid age and not past the last, the integral
    is split there so the (possibly discontinuous) kink does not degrade
    the quadrature. The mass beyond the last grid age a_max is reported as
    tail mass: the renewal branch over [a_max, t], by Simpson at the grid's
    last step, and the initial cohorts older than max(a_max, t), counted
    when they start below ``p0.support_end()``.
    A grid mass that is not finite raises ParameterError.
    """
    t = field.time
    ages = field.age_grid
    a_max = float(ages[-1])
    p_ref = float(traj.state_at(t)[0])
    survival = _survival(traj, t)

    with np.errstate(all="ignore"):  # a mass beyond the float range is refused below
        if ages[0] < t <= a_max:
            young = ages < t
            old = ages > t  # a grid node exactly at t is replaced by the two limits
            left_ages = np.append(ages[young], t)
            left_vals = np.append(field.values[young], traj.birth_rate_at(0.0) * survival)
            grid_mass = simpson(left_vals, left_ages)
            if np.any(old):
                right_ages = np.insert(ages[old], 0, t)
                right_vals = np.insert(field.values[old], 0, float(p0.evaluate(0.0)) * survival)
                grid_mass += simpson(right_vals, right_ages)
        else:
            grid_mass = field.mass()
    if not math.isfinite(grid_mass):  # e.g. Simpson's spacing products overflow on a huge age step
        raise ParameterError(f"the mass of the age profile at t={t!r} is not finite")

    tail_mass = 0.0
    if a_max < t:
        tail = np.linspace(a_max, t, uniform_steps(t - a_max, a_max - ages[-2], "renewal tail ") + 1)
        tail_mass = simpson(_renewal(traj, t, tail), tail)
    oldest = max(a_max, t) - t  # initial cohorts that started older are past the grid
    if oldest < p0.support_end():
        tail_mass += survival * p0.mass(oldest)

    err = abs(grid_mass + tail_mass - p_ref) / max(p_ref, MASS_FLOOR)
    return ConsistencyReport(
        relative_mass_error=float(err),
        grid_mass=float(grid_mass),
        tail_mass=float(tail_mass),
        reference_mass=float(p_ref),
    )
