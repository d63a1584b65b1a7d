"""Small quadrature helpers used across the package."""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

#: most nodes an age grid may have; each array over it takes 8 bytes a node
MAX_GRID_NODES = 10**7


def uniform_steps(length: float, step: float, where: str = "") -> int:
    """The fewest steps n of ``step`` with n * step reaching length to within 1e-9 step; ParameterError
    (prefixed by ``where``) unless length >= 0, step > 0 is finite and length / step < MAX_GRID_NODES."""
    grid = f"{where}age grid [0, {length!r}] at step {step!r}"
    if not (length >= 0 and 0 < step < math.inf):  # an infinite length fails the node bound
        raise ParameterError(f"{grid} needs a length >= 0 and a finite step > 0")
    if not length / step < MAX_GRID_NODES:
        raise ParameterError(f"{grid} needs more than {MAX_GRID_NODES} nodes")
    return int(math.ceil(length / step - 1e-9))


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
