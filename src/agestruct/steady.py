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


def net_reproduction(x: float, params: ModelParams, feedback: FeedbackSpec) -> float:
    """Expected offspring per individual over a lifetime at frozen size x."""
    x = float(x)
    if not (x >= 0) or not math.isfinite(x):
        raise ParameterError("net reproduction is defined for finite x >= 0")
    denom = params.rho + params.mu0 + float(feedback.psi(x))
    total = fertility_kernel_integral(params.betas, denom)
    return params.r0 * float(feedback.phi(x)) * total


def reproduction_derivative(x: float, params: ModelParams, feedback: FeedbackSpec) -> float:
    """Closed-form derivative of the net reproduction number; negative for x >= 0
    unless both feedbacks are off. R = r0 * phi * K(betas, d) with d = rho + mu0 + psi,
    and -dK/dd = sum_i beta_i * (i+1)! / d**(i+2) = K((0, *betas), d)."""
    x = float(x)
    if not (x >= 0) or not math.isfinite(x):
        raise ParameterError("reproduction derivative is defined for finite x >= 0")
    denom = params.rho + params.mu0 + float(feedback.psi(x))
    kernel = fertility_kernel_integral(params.betas, denom)
    kernel_slope = fertility_kernel_integral((0.0, *params.betas), denom)
    return params.r0 * (
        float(feedback.phi_prime(x)) * kernel
        - float(feedback.phi(x)) * float(feedback.psi_prime(x)) * kernel_slope
    )


def steady_state(
    params: ModelParams, feedback: FeedbackSpec, tol: float = 1e-12
) -> float | None:
    """Unique positive root of net_reproduction(x) = 1, or None when absent.

    Returns None when the zero-crowding reproduction number is at most 1.
    Otherwise brackets the root by doubling from [0, 1] up to the largest
    finite power of two, bisects to width tol or until the midpoint rounds
    onto an endpoint, and polishes with at most five Newton steps so the
    residual |R(x) - 1| lands at or below 1e-12.
    """
    if net_reproduction(0.0, params, feedback) <= 1.0:
        return None
    lo, hi = 0.0, 1.0
    while net_reproduction(hi, params, feedback) >= 1.0:
        if not math.isfinite(2.0 * hi):
            raise BracketDivergenceError(
                "no sign change while bracketing the reproduction root "
                "(expansion reached the largest float); the feedbacks do not force decay"
            )
        lo, hi = hi, 2.0 * hi
    while hi - lo > tol:
        # halving before adding cannot overflow and rounds like 0.5 * (lo + hi)
        mid = 0.5 * lo + 0.5 * hi
        if mid == lo or mid == hi:
            break
        if net_reproduction(mid, params, feedback) >= 1.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * lo + 0.5 * hi
    for _ in range(5):
        fx = net_reproduction(x, params, feedback) - 1.0
        if abs(fx) <= 1e-14:
            break
        dfx = reproduction_derivative(x, params, feedback)
        if dfx == 0.0:
            break
        x_next = x - fx / dfx
        if not math.isfinite(x_next) or x_next < 0.0:
            break
        x = x_next
    return x


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


def _report_for(p_star: float, params: ModelParams, feedback: FeedbackSpec, exists: bool) -> EquilibriumReport:
    moments = _moment_chain(p_star, params, feedback) if p_star > 0 else (0.0,) * params.n
    state = reduction.StateVector(p=p_star, moments=moments)
    resid = reduction.rhs(state, params, feedback)
    residual = float(np.max(np.abs(resid.as_array())))
    births = reduction.birth_rate(state, params, feedback)
    return EquilibriumReport(
        p_star=p_star,
        moments_star=moments,
        birth_rate_star=births,
        residual_inf_norm=residual,
        exists=exists,
    )


def equilibrium(params: ModelParams, feedback: FeedbackSpec, tol: float = 1e-12) -> EquilibriumReport:
    """Nontrivial equilibrium report: root of the reproduction number plus the
    moment chain it induces, with the rhs residual evaluated as a check."""
    p_star = steady_state(params, feedback, tol)
    if p_star is None:
        return _report_for(0.0, params, feedback, exists=False)
    return _report_for(p_star, params, feedback, exists=True)


def trivial_equilibrium(params: ModelParams, feedback: FeedbackSpec) -> EquilibriumReport:
    """The all-zero equilibrium, which every parameterization admits."""
    return _report_for(0.0, params, feedback, exists=False)


@dataclass(frozen=True)
class SweepPoint:
    r0: float
    p_star: float | None
    exists: bool


def bifurcation_sweep(
    params: ModelParams, feedback: FeedbackSpec, r0_grid: Sequence[float]
) -> list[SweepPoint]:
    """Equilibrium size across a grid of fertility scales.

    Rows are independent; they are computed in grid order so output files
    are deterministic.
    """
    grid = [float(r) for r in r0_grid]
    if len(grid) == 0:
        raise ParameterError("sweep grid must be nonempty")
    if any(not math.isfinite(r) or r <= 0 for r in grid):
        raise ParameterError("sweep grid entries must be finite and > 0")
    out = []
    for r in grid:
        p_star = steady_state(params.with_r0(r), feedback)
        out.append(SweepPoint(r0=r, p_star=p_star, exists=p_star is not None))
    return out
