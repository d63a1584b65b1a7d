"""Net reproduction number, nontrivial equilibria, and bifurcation sweeps.

The net reproduction number at a frozen population size x has the closed
form r0 * phi(x) * sum_i beta_i * i! / (rho + mu0 + psi(x))**(i+1); it is
strictly decreasing in x, so the model has a unique nontrivial equilibrium
exactly when the zero-crowding value exceeds 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import reduction
from .errors import BracketDivergenceError, ParameterError
from .model import FeedbackSpec, ModelParams, fertility_kernel_integral

#: bracket width at which bisection hands the root to Newton
_BISECT_WIDTH = 1e-12


def _reproduction(x, r0, params: ModelParams, feedback: FeedbackSpec):
    """R(x) = r0 * phi(x) * K(betas, rho + mu0 + psi(x)), elementwise."""
    rate = params.rho + params.mu0 + feedback.psi(x)
    return r0 * feedback.phi(x) * fertility_kernel_integral(params.betas, rate)


def _reproduction_slope(x, r0, params: ModelParams, feedback: FeedbackSpec):
    """R'(x), elementwise; -dK/dd = sum_i beta_i * (i+1)! / d**(i+2) = K((0, *betas), d)."""
    rate = params.rho + params.mu0 + feedback.psi(x)
    kernel = fertility_kernel_integral(params.betas, rate)
    kernel_slope = fertility_kernel_integral((0.0, *params.betas), rate)
    return r0 * (feedback.phi_prime(x) * kernel - feedback.phi(x) * feedback.psi_prime(x) * kernel_slope)


def net_reproduction(x: float, params: ModelParams, feedback: FeedbackSpec) -> float:
    """Expected offspring per individual over a lifetime at frozen size x."""
    if not 0 <= float(x) < math.inf:
        raise ParameterError("net reproduction is defined for finite x >= 0")
    return _reproduction(float(x), params.r0, params, feedback)


def reproduction_derivative(x: float, params: ModelParams, feedback: FeedbackSpec) -> float:
    """Closed-form derivative of the net reproduction number; negative for x >= 0
    unless both feedbacks are off."""
    if not 0 <= float(x) < math.inf:
        raise ParameterError("reproduction derivative is defined for finite x >= 0")
    return _reproduction_slope(float(x), params.r0, params, feedback)


def _roots(r0: np.ndarray, params: ModelParams, feedback: FeedbackSpec) -> np.ndarray:
    """steady_state's root for each fertility scale in r0, nan where absent. Index
    arrays hold the elements left in each stage, so each leaves it where a scalar loop would."""
    lo, hi, x = np.zeros(r0.shape), np.ones(r0.shape), np.full(r0.shape, np.nan)
    live = grow = halve = np.flatnonzero(_reproduction(lo, r0, params, feedback) > 1.0)
    while grow.size:
        grow = grow[_reproduction(hi[grow], r0[grow], params, feedback) >= 1.0]
        if np.any(hi[grow] == 2.0**1023):  # the largest finite power of two
            raise BracketDivergenceError(
                "no sign change while bracketing the reproduction root "
                "(expansion reached the largest float); the feedbacks do not force decay"
            )
        lo[grow], hi[grow] = hi[grow], 2.0 * hi[grow]
    while halve.size:
        # halving before adding cannot overflow and rounds like 0.5 * (lo + hi)
        mid = 0.5 * lo[halve] + 0.5 * hi[halve]
        going = (hi[halve] - lo[halve] > _BISECT_WIDTH) & (mid != lo[halve]) & (mid != hi[halve])
        halve, mid = halve[going], mid[going]
        above = _reproduction(mid, r0[halve], params, feedback) >= 1.0
        lo[halve[above]], hi[halve[~above]] = mid[above], mid[~above]
    x[live] = 0.5 * lo[live] + 0.5 * hi[live]
    for _ in range(5):
        fx = _reproduction(x[live], r0[live], params, feedback) - 1.0
        with np.errstate(all="ignore"):  # a zero slope gives a non-finite step
            x_next = x[live] - fx / _reproduction_slope(x[live], r0[live], params, feedback)
        moves = (np.abs(fx) > 1e-14) & np.isfinite(x_next) & (x_next >= 0.0)
        live = live[moves]
        x[live] = x_next[moves]
    return x


def steady_state(params: ModelParams, feedback: FeedbackSpec) -> float | None:
    """Unique positive root of net_reproduction(x) = 1, or None when absent.

    Returns None when the zero-crowding reproduction number is at most 1.
    Otherwise brackets the root by doubling from [0, 1] up to the largest
    finite power of two, bisects to width 1e-12 or until the midpoint rounds
    onto an endpoint, and polishes with at most five Newton steps so the
    residual |R(x) - 1| lands at or below 1e-12.
    """
    x = float(_roots(np.array([params.r0]), params, feedback)[0])
    return None if math.isnan(x) else x


@dataclass(frozen=True)
class EquilibriumReport:
    """Nontrivial equilibrium of the moment system (zeros when absent)."""

    p_star: float
    moments_star: tuple[float, ...]
    birth_rate_star: float
    residual_inf_norm: float
    exists: bool


def _moment_chain(p_star: float, params: ModelParams, feedback: FeedbackSpec) -> tuple[float, ...]:
    psi = float(feedback.psi(p_star))
    denom = params.rho + params.mu0 + psi
    first = (params.mu0 + psi) / denom * p_star
    moments = [first]
    for i in range(1, params.n):
        moments.append(i / denom * moments[-1])
    return tuple(moments)


def _report_for(p_star: float, params: ModelParams, feedback: FeedbackSpec) -> EquilibriumReport:
    moments = _moment_chain(p_star, params, feedback)
    state = (p_star, *moments)
    residual = float(np.max(np.abs(reduction.rhs(state, params, feedback))))
    births = reduction.birth_rate(state, params, feedback)
    return EquilibriumReport(
        p_star=p_star,
        moments_star=moments,
        birth_rate_star=births,
        residual_inf_norm=residual,
        exists=p_star > 0.0,
    )


def equilibrium(params: ModelParams, feedback: FeedbackSpec) -> EquilibriumReport:
    """Nontrivial equilibrium report: root of the reproduction number plus the
    moment chain it induces, with the rhs residual evaluated as a check."""
    p_star = steady_state(params, feedback)
    if p_star is None:
        return trivial_equilibrium(params, feedback)
    return _report_for(p_star, params, feedback)


def trivial_equilibrium(params: ModelParams, feedback: FeedbackSpec) -> EquilibriumReport:
    """The all-zero equilibrium, which every parameterization admits."""
    return _report_for(0.0, params, feedback)


@dataclass(frozen=True)
class SweepPoint:
    r0: float
    p_star: float | None
    exists: bool


def bifurcation_sweep(
    params: ModelParams, feedback: FeedbackSpec, r0_grid: Sequence[float]
) -> list[SweepPoint]:
    """Equilibrium size across a grid of fertility scales, solved at once and
    returned in grid order."""
    grid = np.array([float(r) for r in r0_grid])
    if len(grid) == 0:
        raise ParameterError("sweep grid must be nonempty")
    params.check_r0_range(grid, "r0_values")
    p_star = [None if math.isnan(p) else p for p in _roots(grid, params, feedback).tolist()]
    return [SweepPoint(r0=r, p_star=p, exists=p is not None) for r, p in zip(grid.tolist(), p_star)]
