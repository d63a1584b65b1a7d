"""Uniform grids, the checks that size them, and small quadrature helpers.

The grid checks live here, beside the grids they size, so that the config
reader refuses a bad oracle or age grid without loading the solvers.
"""

from __future__ import annotations

import math
import numbers
from typing import TYPE_CHECKING

import numpy as np

from .errors import ParameterError

if TYPE_CHECKING:
    from .model import InitialDensity, ModelParams

#: most nodes an age grid may have; each array over it takes 8 bytes a node
MAX_GRID_NODES = 10**7
#: the oracle's iteration cap where callers do not specify one
DEFAULT_K_MAX = 200


def uniform_steps(length: float, step: float, where: str = "") -> int:
    """The fewest steps n of ``step`` with n * step reaching length to within 1e-9 step; ParameterError
    (prefixed by ``where``) unless length >= 0, step > 0 is finite and length / step < MAX_GRID_NODES."""
    grid = f"{where}age grid [0, {length!r}] at step {step!r}"
    if not (length >= 0 and 0 < step < math.inf):  # an infinite length fails the node bound
        raise ParameterError(f"{grid} needs a length >= 0 and a finite step > 0")
    if not length / step < MAX_GRID_NODES:
        raise ParameterError(f"{grid} needs more than {MAX_GRID_NODES} nodes")
    return int(math.ceil(length / step - 1e-9))


def initial_cohort_steps(p0: InitialDensity, dt: float, where: str = "") -> int:
    """Steps of dt over the initial cohorts' ages [0, p0.support_end()]; ParameterError, prefixed
    by ``where``, where those need more than MAX_GRID_NODES nodes (see ``uniform_steps``)."""
    return uniform_steps(p0.support_end(), dt, where)


def default_age_length(t_end: float, p0: InitialDensity, step: float) -> float:
    """Length t_end + p0.support_end() of the default age grid, at least one step.

    At any t <= t_end the ages past t + support_end hold only initial
    cohorts, at most model.TAIL_TOL of their mass, whatever the rates.
    """
    return max(t_end + p0.support_end(), step)


def _solvable(params: ModelParams, dt: float) -> bool:
    return 0.5 * dt * params.r0 * params.betas[0] < 1.0


def check_solvable(params: ModelParams, dt: float, where: str = "oracle ") -> None:
    """ParameterError, naming ``where`` + dt, unless dt * r0 * betas[0] / 2 < 1, which, as
    phi <= phi(0) = 1, gives every node equation of the separable trapezoid scheme one root."""
    if not _solvable(params, dt):
        bound = 2.0 / (params.r0 * params.betas[0])
        raise ParameterError(f"{where}dt={dt!r} must be below 2 / (r0 * betas[0]) = {bound!r}")


def grid_steps(t_end, dt, tol=1e-10, k_max=DEFAULT_K_MAX, where: str = "") -> int:
    """Number of dt steps in the oracle horizon, at least one.

    Raises ParameterError unless t_end > 0 and dt > 0 are finite, dt divides t_end to within
    1e-9 * t_end into at least one and fewer than MAX_GRID_NODES steps, tol > 0 is finite and
    k_max >= 1 is an integer. ``where`` prefixes each name in the message."""
    if not 0 < t_end < math.inf:
        raise ParameterError(f"{where}t_end must be positive and finite")
    if not 0 < dt < math.inf:
        raise ParameterError(f"{where}dt must be positive and finite")
    if not t_end / dt < MAX_GRID_NODES:
        raise ParameterError(f"{where}t_end / {where}dt needs more than {MAX_GRID_NODES} grid nodes")
    n_steps = round(t_end / dt)
    slack = 1e-9 * t_end
    if t_end < dt - slack:  # below one step
        raise ParameterError(f"{where}t_end must be at least {where}dt")
    if abs(n_steps * dt - t_end) > slack:
        raise ParameterError(f"oracle dt={dt!r} must divide the horizon t_end={t_end!r} evenly")
    if not (tol > 0 and k_max >= 1):
        raise ParameterError(f"{where}tol must be positive and {where}k_max at least 1")
    if tol == math.inf:
        raise ParameterError(f"{where}tol: must be finite")
    if not isinstance(k_max, numbers.Integral):
        raise ParameterError(f"{where}k_max: expected an integer")
    return n_steps


def uniform_grid(length: float, step: float) -> np.ndarray:
    """Nodes 0, step, ..., n * step for n = uniform_steps(length, step)."""
    n = uniform_steps(length, step)
    return np.linspace(0.0, n * step, n + 1)


def trapezoid(y, dx: float) -> float:
    """Composite trapezoid on a uniform grid. Fewer than two nodes -> 0."""
    y = np.asarray(y, dtype=float)
    if y.size < 2:
        return 0.0
    return float(dx * (y.sum() - 0.5 * (y[0] + y[-1])))


def cumulative_trapezoid(y, dx: float) -> np.ndarray:
    """Running trapezoid integral on a uniform grid; out[0] == 0."""
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum(0.5 * dx * (y[1:] + y[:-1]), out=out[1:])
    return out


def simpson(y, x) -> float:
    """Composite Simpson on an arbitrary strictly increasing grid.

    Interval pairs use the nonuniform three-point rule; an odd leftover
    interval is integrated with the quadratic through the last three nodes,
    so quadratics are exact for any node count >= 3.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape != x.shape or y.ndim != 1:
        raise ValueError("simpson expects matching 1-d arrays")
    m = x.size - 1
    if m < 1:
        return 0.0
    if m == 1:
        return float(0.5 * (x[1] - x[0]) * (y[0] + y[1]))
    h = np.diff(x)
    end = 2 * (m // 2)
    h0, h1 = h[0:end:2], h[1:end:2]
    hsum = h0 + h1
    total = float(np.sum((hsum / 6.0) * (
        (2.0 - h1 / h0) * y[0:end:2]
        + (hsum * hsum / (h0 * h1)) * y[1:end:2]
        + (2.0 - h0 / h1) * y[2:end + 1:2]
    )))
    if m % 2 == 1:
        # quadratic through the last three nodes, integrated over the final interval
        h0 = x[m - 1] - x[m - 2]
        h1 = x[m] - x[m - 1]
        w0 = -(h1 ** 3) / (6.0 * h0 * (h0 + h1))
        w1 = h1 * h1 / (6.0 * h0) + 0.5 * h1
        w2 = (2.0 * h1 * h1 + 3.0 * h0 * h1) / (6.0 * (h0 + h1))
        total += w0 * y[m - 2] + w1 * y[m - 1] + w2 * y[m]
    return float(total)
