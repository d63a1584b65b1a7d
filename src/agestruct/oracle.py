"""Independent integral-equation solver used to cross-check the moment ODEs.

The renewal process is solved directly as a pair of Volterra equations for
the birth rate B(t) and population size P(t), discretized with composite
trapezoid on a uniform grid and iterated to a fixed point. Nothing here
shares code with the ODE reduction, so agreement between the two is a real
consistency check and not a tautology.

Models with the separable structure (age-independent excess mortality,
polynomial-times-exponential fertility profile) take a fast path: each
sweep is two FFT convolutions of exp(Z) * B, Z the integrated crowding
mortality, one with the whole fertility kernel and one with the survival
kernel. FFT round-off is eps times the largest input, and exp(Z) may reach
exp(600) under the overflow guard (which stays), so one transform over the
whole grid would bury the early values. The grid is cut into blocks, each
rescaled so that its inputs stay within exp(4) of one another, which keeps
the error near exp(4) * eps of the local size (see
``_damped_conv_integrals``). Arbitrary ``mu(a, P)`` / ``beta(a, P)``
evaluators fall back to a dense O(N^2) sweep.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from math import comb
from typing import Callable, Optional, TextIO

import numpy as np

from .errors import ConvergenceError, HistoryRangeError, ParameterError
from .model import (
    FeedbackSpec,
    InitialDensity,
    ModelParams,
    density_moments,
    fertility_age_profile,
)
from .quadrature import cumulative_trapezoid, trapezoid
from .reduction import Trajectory, integrate

logger = logging.getLogger(__name__)

#: iteration cap used when callers do not specify one
DEFAULT_K_MAX = 200
#: largest survival exponent the separable fast path will exponentiate
_EXP_GUARD = 600.0
#: rise of the log convolution input allowed inside one rescaled FFT block
_BLOCK_SPAN = 4.0


@dataclass(frozen=True)
class SeparableParts:
    """Structured coefficients that unlock the convolution fast path."""

    params: ModelParams
    feedback: FeedbackSpec


@dataclass(eq=False)
class GeneralModel:
    """Age-and-size dependent vital rates plus the starting age profile.

    ``mortality`` and ``fertility`` are callables of (age, population size)
    and should vectorize over numpy arrays; scalar-only callables are
    wrapped automatically. ``separable`` is an optional structural hint --
    results are identical either way, only the sweep cost changes.
    """

    mortality: Callable
    fertility: Callable
    initial_density: InitialDensity
    separable: Optional[SeparableParts] = None


def from_separable(params: ModelParams, feedback: FeedbackSpec, p0: InitialDensity) -> GeneralModel:
    """Wrap separable-model ingredients as a GeneralModel.

    The mortality evaluator is mu0 + psi(P); the fertility evaluator is
    r0 * phi(P) times the polynomial-exponential age profile.
    """

    def mortality(a, p):
        return params.mu0 + feedback.psi(p) + np.zeros_like(np.asarray(a, dtype=float))

    def fertility(a, p):
        return params.r0 * feedback.phi(p) * fertility_age_profile(a, params)

    return GeneralModel(
        mortality=mortality,
        fertility=fertility,
        initial_density=p0,
        separable=SeparableParts(params=params, feedback=feedback),
    )


def _eval_rates(fn: Callable, ages, sizes, what: str) -> np.ndarray:
    """Evaluate rate(age, size) on broadcast-compatible arrays.

    Tries one vectorized call first; falls back to elementwise evaluation
    for scalar-only callables. Output is validated finite and nonnegative.
    """
    ages = np.asarray(ages, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    shape = np.broadcast_shapes(ages.shape, sizes.shape)
    try:
        out = np.asarray(fn(ages, sizes), dtype=float)
        if out.shape != shape:
            raise ValueError
    except (TypeError, ValueError):
        out = np.vectorize(fn, otypes=[float])(ages, sizes)
    if not np.all(np.isfinite(out)) or np.any(out < 0):
        raise ParameterError(f"{what} evaluator produced negative or non-finite values")
    return out


def _eval_grid(fn: Callable, a_nodes: np.ndarray, p_nodes: np.ndarray, what: str) -> np.ndarray:
    """Evaluate rate(age, size) on the outer grid a_nodes x p_nodes."""
    return _eval_rates(fn, a_nodes[:, None], p_nodes[None, :], what)


def survival_factor(a, t, x, times, populations, model: GeneralModel) -> float:
    """Probability of surviving the last x time units for age a at time t.

    The mortality exponent integral(0..x) mu(a - s, P(t - s)) ds is taken by
    trapezoid on the history grid restricted to the lookback window, with
    the window endpoints inserted, then exponentiated.
    """
    a, t, x = float(a), float(t), float(x)
    times = np.asarray(times, dtype=float)
    populations = np.asarray(populations, dtype=float)
    if not (0.0 <= x <= min(a, t) + 1e-12):
        raise ParameterError("lookback must satisfy 0 <= x <= min(a, t)")
    if x == 0.0:
        return 1.0
    slack = 1e-9 * max(1.0, abs(t))
    if t - x < times[0] - slack or t > times[-1] + slack:
        raise HistoryRangeError(f"history does not cover [{t - x!r}, {t!r}]")
    inside = times[(times > t - x) & (times < t)]
    nodes = np.concatenate(([t - x], inside, [t]))
    sigma = t - nodes[::-1]  # increasing lookbacks in [0, x]
    p_vals = np.interp(t - sigma, times, populations)
    mu_vals = _eval_rates(model.mortality, a - sigma, p_vals, "mortality")
    exponent = 0.5 * float(np.sum((mu_vals[1:] + mu_vals[:-1]) * np.diff(sigma)))
    return math.exp(-exponent)


@dataclass(frozen=True)
class OracleSolution:
    """Converged discrete solution of the renewal integral system."""

    times: np.ndarray
    birth_rates: np.ndarray
    populations: np.ndarray
    iterations: int
    final_update: float


def _damped_conv_integrals(kernels: np.ndarray, z: np.ndarray, b: np.ndarray, dt: float) -> np.ndarray:
    """Trapezoid values of integral(0..t_m) k(t_m - s) exp(z(s) - z(t_m)) b(s) ds.

    One output row per kernel row; ``z`` must be nondecreasing and ``b``
    nonnegative. Blocks [s, e) of targets end where level_m = max_{j<=m}
    (z_j + log b_j), the log of the largest entry of exp(z) * b so far,
    crosses a multiple of ``_BLOCK_SPAN``; a growing b needs this as much as
    a growing z. Each block convolves exp(z_j - z_s) * b_j for j < e, all
    within exp(_BLOCK_SPAN) of the block's starting level, and scales the
    outputs back by exp(z_s - z_m) <= 1. Kernels are cut to [:e] and the FFT
    is at least 2e - 1 - s long, so the circular wrap never lands in [s, e).
    The exact sums have nonnegative terms, so outputs are clipped at zero.
    """
    n = b.size
    out = np.empty_like(kernels)
    with np.errstate(divide="ignore"):
        level = np.maximum.accumulate(z + np.log(b))
    bins = np.floor(level / _BLOCK_SPAN)
    starts = [0, *(np.flatnonzero(bins[1:] != bins[:-1]) + 1).tolist()]
    for s, e in zip(starts, [*starts[1:], n]):
        nfft = 1 << (2 * e - 2 - s).bit_length()
        g = np.exp(z[:e] - z[s]) * b[:e]
        full = np.fft.irfft(np.fft.rfft(kernels[:, :e], nfft) * np.fft.rfft(g, nfft), nfft)[:, s:e]
        full -= 0.5 * (kernels[:, s:e] * g[0] + kernels[:, :1] * g[s:e])
        full *= dt * np.exp(z[s] - z[s:e])
        np.maximum(full, 0.0, out=out[:, s:e])
    return out


def _sigma_grid(p0: InitialDensity, dt: float) -> np.ndarray:
    support = p0.support_end()
    n_sig = int(math.ceil(support / dt - 1e-9)) if support > 0 else 0
    return np.linspace(0.0, n_sig * dt, n_sig + 1)


class _SeparableSweep:
    """One fixed-point sweep for the separable model, via convolutions."""

    def __init__(self, model: GeneralModel, times: np.ndarray, dt: float):
        parts = model.separable
        self.params = parts.params
        self.feedback = parts.feedback
        self.times = times
        self.dt = dt
        n = self.params.n
        survival = np.exp(-self.params.mu0 * times)
        # renewal kernel (all fertility terms at once) and survival kernel
        self.kernels = np.stack((fertility_age_profile(times, self.params) * survival, survival))
        sigma = _sigma_grid(model.initial_density, dt)
        p0_vals = np.asarray(model.initial_density.evaluate(sigma), dtype=float)
        weighted = p0_vals * np.exp(-self.params.rho * sigma)
        self.tail_moments = [trapezoid(sigma**j * weighted, dt) for j in range(n)]
        self.mass0 = trapezoid(p0_vals, dt)

    def seed_population(self) -> float:
        return self.mass0

    def __call__(self, b: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pr = self.params
        psi_int = cumulative_trapezoid(np.asarray(self.feedback.psi(p), dtype=float), self.dt)
        if psi_int[-1] + pr.mu0 * self.times[-1] > _EXP_GUARD:
            raise ParameterError("survival exponent overflow on the separable fast path")
        shrink = np.exp(-psi_int)
        phi_vals = pr.r0 * np.asarray(self.feedback.phi(p), dtype=float)

        renewal, p_integral = _damped_conv_integrals(self.kernels, psi_int, b, self.dt)
        renewal *= phi_vals

        survive0 = np.exp(-pr.mu0 * self.times) * shrink
        poly = np.zeros_like(self.times)
        for i, beta_i in enumerate(pr.betas):
            terms = sum(
                comb(i, j) * self.times ** (i - j) * self.tail_moments[j] for j in range(i + 1)
            )
            poly += beta_i * terms
        f_vals = phi_vals * survive0 * np.exp(-pr.rho * self.times) * poly
        g_vals = survive0 * self.mass0
        return renewal + f_vals, p_integral + g_vals


class _GenericSweep:
    """One fixed-point sweep with arbitrary rate evaluators (dense O(N^2))."""

    def __init__(self, model: GeneralModel, times: np.ndarray, dt: float):
        self.model = model
        self.times = times
        self.dt = dt
        self.sigma = _sigma_grid(model.initial_density, dt)
        self.p0_vals = np.asarray(model.initial_density.evaluate(self.sigma), dtype=float)
        self.mass0 = trapezoid(self.p0_vals, dt)

    def seed_population(self) -> float:
        return self.mass0

    def _survival_exponents(self, p: np.ndarray) -> np.ndarray:
        """exponents[j, m] = integral(0..j*dt) mu(w, P(t_{m-j} + w)) dw."""
        n = self.times.size
        rates = _eval_grid(self.model.mortality, self.times, p, "mortality")
        expo = np.zeros((n, n))
        for d in range(n):
            idx = np.arange(n - d)
            diag = rates[idx, d + idx]
            expo[idx, d + idx] = self.dt * (np.cumsum(diag) - 0.5 * (diag[0] + diag))
        return expo

    def __call__(self, b: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = self.times.size
        dt = self.dt
        decay = np.exp(-self._survival_exponents(p))
        births = _eval_grid(self.model.fertility, self.times, p, "fertility")

        new_b = np.zeros(n)
        new_p = np.zeros(n)
        for m in range(1, n):
            b_rev = b[m::-1]
            weights = decay[: m + 1, m] * b_rev
            full = births[: m + 1, m] * weights
            new_b[m] = dt * (np.sum(full) - 0.5 * (full[0] + full[m]))
            new_p[m] = dt * (np.sum(weights) - 0.5 * (weights[0] + weights[m]))
        del decay, births

        # survived initial cohort: an individual aged sigma at time zero is
        # aged sigma + v at time v, so its exponent integrates mu along that
        # shifted diagonal. The (sigma x time) grids are the largest arrays of
        # the sweep, so the exponent, survival and fertility products are
        # built in place and each input grid is dropped once used.
        ages = self.sigma[:, None] + self.times[None, :]
        mu_shift = _eval_rates(self.model.mortality, ages, p[None, :], "mortality")
        alive = np.empty_like(mu_shift)
        alive[:, 0] = 0.0
        np.add(mu_shift[:, 1:], mu_shift[:, :-1], out=alive[:, 1:])
        del mu_shift
        alive[:, 1:] *= 0.5 * dt
        np.cumsum(alive[:, 1:], axis=1, out=alive[:, 1:])
        np.negative(alive, out=alive)
        np.exp(alive, out=alive)
        alive *= self.p0_vals[:, None]
        fert_alive = _eval_rates(self.model.fertility, ages, p[None, :], "fertility")
        del ages
        fert_alive *= alive
        if self.sigma.size < 2:
            g_vals = np.zeros(n)
            f_vals = np.zeros(n)
        else:
            g_vals = dt * (alive.sum(axis=0) - 0.5 * (alive[0] + alive[-1]))
            f_vals = dt * (fert_alive.sum(axis=0) - 0.5 * (fert_alive[0] + fert_alive[-1]))
        return new_b + f_vals, new_p + g_vals


def grid_steps(t_end: float, dt: float) -> int:
    """Number of dt steps in the oracle horizon; 0 (a single node) when t_end < dt.

    Raises ParameterError unless dt divides t_end to within 1e-9 * max(1, t_end).
    """
    if t_end < dt:
        return 0
    n_steps = round(t_end / dt)
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ParameterError(f"oracle dt={dt!r} must divide the horizon t_end={t_end!r} evenly")
    return n_steps


def volterra_solve(
    model: GeneralModel,
    t_end: float,
    dt: float,
    tol: float = 1e-10,
    k_max: int = DEFAULT_K_MAX,
    log: Optional[TextIO] = None,
) -> OracleSolution:
    """Fixed-point solve of the coupled B/P renewal equations.

    All integrals use composite trapezoid on the uniform grid; each sweep
    rebuilds both equations from the previous iterates, and iteration stops
    once the sup-norm change of both B and P drops to ``tol``. Raises
    ConvergenceError (carrying the last update norm) if ``k_max`` sweeps
    are not enough.
    """
    t_end, dt = float(t_end), float(dt)
    if not (t_end >= 0 and math.isfinite(t_end)):
        raise ParameterError("horizon must be nonnegative and finite")
    if not (dt > 0 and math.isfinite(dt)) or tol <= 0 or k_max < 1:
        raise ParameterError("dt and tol must be positive, k_max at least 1")
    times = np.linspace(0.0, t_end, grid_steps(t_end, dt) + 1)

    sweep = _SeparableSweep(model, times, dt) if model.separable else _GenericSweep(model, times, dt)
    p = np.full(times.size, sweep.seed_population())
    b, p = sweep(np.zeros(times.size), p)

    update = math.inf
    for k in range(1, k_max + 1):
        b_next, p_next = sweep(b, p)
        update = max(
            float(np.max(np.abs(b_next - b))),
            float(np.max(np.abs(p_next - p))),
        )
        logger.debug("%d,%.6e", k, update)
        if log is not None:
            log.write(f"{k},{update:.6e}\n")
        b, p = b_next, p_next
        if update <= tol:
            return OracleSolution(
                times=times,
                birth_rates=np.maximum(b, 0.0),
                populations=np.maximum(p, 0.0),
                iterations=k,
                final_update=update,
            )
    raise ConvergenceError(
        f"fixed-point iteration stalled after {k_max} sweeps",
        update_norm=update,
        iterations=k_max,
    )


@dataclass(frozen=True)
class CrossValidationReport:
    """Sup-norm gaps between the integral-equation and ODE solutions."""

    p_gap: float
    b_gap: float
    times: np.ndarray
    oracle: OracleSolution
    ode_populations: np.ndarray
    ode_birth_rates: np.ndarray
    trajectory: Trajectory

    @property
    def max_gap(self) -> float:
        return max(self.p_gap, self.b_gap)


def cross_validate(
    params: ModelParams,
    feedback: FeedbackSpec,
    p0: InitialDensity,
    t_end: float,
    dt: float,
    tol: float = 1e-10,
    k_max: int = DEFAULT_K_MAX,
    log: Optional[TextIO] = None,
) -> CrossValidationReport:
    """Solve the same separable model both ways and report the disagreement.

    The integral-equation route never sees the moment closure, and the ODE
    route never sees the renewal kernel, so the gaps measure genuine
    discretization error rather than shared bugs. The ODE side is run at
    tight tolerance so the gap is dominated by the oracle's O(dt^2) error.
    """
    model = from_separable(params, feedback, p0)
    oracle = volterra_solve(model, t_end, dt, tol=tol, k_max=k_max, log=log)
    start = density_moments(p0, params.rho, params.n)
    traj = integrate(
        start,
        params,
        feedback,
        t_end=t_end,
        method="rk45",
        rtol=1e-10,
        atol=1e-12,
        sample_times=oracle.times,
    )
    ode_p = traj.states[:, 0]
    ode_b = traj.birth_rates
    return CrossValidationReport(
        p_gap=float(np.max(np.abs(ode_p - oracle.populations))),
        b_gap=float(np.max(np.abs(ode_b - oracle.birth_rates))),
        times=oracle.times,
        oracle=oracle,
        ode_populations=ode_p,
        ode_birth_rates=ode_b,
        trajectory=traj,
    )
