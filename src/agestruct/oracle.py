"""Independent integral-equation solver used to cross-check the moment ODEs.

The renewal process is solved directly as a pair of Volterra equations for
the birth rate B(t) and population size P(t), discretized with composite
trapezoid on a uniform grid and iterated to a fixed point. Nothing here
shares code with the ODE reduction, so agreement between the two is a real
consistency check and not a tautology.

The trapezoid system is lower-triangular in time, so it is solved window
by window (block Gauss-Seidel): nodes before a window are final and Picard
sweeps update only the window's unknowns, each window stopping at its share
of the tolerance (see ``volterra_solve``).

Models with the separable structure (age-independent excess mortality,
polynomial-times-exponential fertility profile) take a fast path with one
window, the whole grid: each sweep is two FFT convolutions of exp(Z) * B,
Z the integrated crowding mortality, one with the whole fertility kernel
and one with the survival kernel. FFT round-off is eps times the largest
input, and exp(Z) may reach exp(600) under the overflow guard (which
stays), so one transform over the whole grid would bury the early values.
The grid is cut into blocks, each rescaled so that its inputs stay within
exp(4) of one another, which keeps the error near exp(4) * eps of the local
size (see ``_damped_conv_integrals``). A block [s, e) transforms the
kernels cut to [:e] at FFT length nfft, so each sweep keeps those spectra
by (e, nfft) and the next reuses the ones whose block layout still holds.
Arbitrary ``mu(a, P)`` / ``beta(a, P)`` evaluators fall back to a dense
sweep over short windows.
A sweep of window [s, e) calls each evaluator once, on the ages alive by
node e - 1 against the sizes of rows s - 1 .. e - 1, and accepts any result
that broadcasts to that table. A strided view reads the table along
characteristics (cohorts), and the survival exponents of row s - 1 are
carried over from the window before, so survival and both renewal integrals
come from window-table array passes and two matrix-vector products (see
``_GenericSweep``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConvergenceError, ParameterError
from .model import (
    FeedbackSpec,
    InitialDensity,
    ModelParams,
    density_moments,
    fertility_age_profile,
)
from .quadrature import MAX_GRID_NODES, cumulative_trapezoid, trapezoid, uniform_grid
from .reduction import integrate

#: iteration cap used when callers do not specify one
DEFAULT_K_MAX = 200
#: largest survival exponent the separable fast path will exponentiate
_EXP_GUARD = 600.0
#: rise of the log convolution input allowed inside one rescaled FFT block
_BLOCK_SPAN = 4.0
#: time span of one window of the generic path, and its fewest rows: a
#: sweep has a fixed cost, which on coarse grids outweighs its table work
_WINDOW_SPAN = 0.15
_WINDOW_MIN_ROWS = 16


@dataclass(frozen=True)
class SeparableParts:
    """Structured coefficients that unlock the convolution fast path."""

    params: ModelParams
    feedback: FeedbackSpec


@dataclass(eq=False)
class GeneralModel:
    """Age-and-size dependent vital rates plus the starting age profile.

    ``mortality`` and ``fertility`` are callables of (age, population size)
    and should vectorize over numpy arrays. The oracle calls each once per
    sweep of a window with ages of shape (1, W) and sizes of shape (R, 1),
    and accepts any result that broadcasts to (R, W), such as a scalar or a
    size-only (R, 1) column. Scalar-only callables, which raise TypeError or
    ValueError on arrays, are evaluated entry by entry. ``separable`` is an
    optional structural hint -- results are identical either way, only the
    sweep cost changes.
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
        return params.mu0 + feedback.psi(p)

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

    Tries one vectorized call first and accepts any result that broadcasts
    to the shape of ``ages`` and ``sizes`` together (a scalar, a size-only or
    an age-only array); falls back to elementwise evaluation for scalar-only
    callables. The result is validated finite and nonnegative and returned
    as a read-only view broadcast to that shape.
    """
    ages = np.asarray(ages, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    shape = np.broadcast_shapes(ages.shape, sizes.shape)
    try:
        out = np.asarray(fn(ages, sizes), dtype=float)
        if np.broadcast_shapes(out.shape, shape) != shape:
            raise ValueError
    except (TypeError, ValueError):
        out = np.vectorize(fn, otypes=[float])(ages, sizes)
    # min and max propagate NaN, so the two reductions check every entry
    if not (out.min() >= 0.0 and out.max() < math.inf):
        raise ParameterError(f"{what} evaluator produced negative or non-finite values")
    return np.broadcast_to(out, shape)


@dataclass(frozen=True)
class OracleSolution:
    """Converged discrete solution of the renewal integral system.

    ``iterations`` is the most counted sweeps any one window took and
    ``sweeps`` their total over all ``windows``; a single-window solve has
    ``sweeps == iterations``. Each window also runs one uncounted seeding
    sweep. ``final_update`` is the largest last update of any window.
    ``sweep_log`` holds one line per counted sweep: ``k,update`` for a single
    window, ``w,k,update`` (window w from 1) for several.
    """

    times: np.ndarray
    birth_rates: np.ndarray
    populations: np.ndarray
    iterations: int
    final_update: float
    windows: int
    sweeps: int
    sweep_log: tuple[str, ...]


def _damped_conv_integrals(
    kernels: np.ndarray, z: np.ndarray, b: np.ndarray, dt: float, spectra: dict
) -> np.ndarray:
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

    A block's kernel spectrum rfft(kernels[:, :e], nfft) depends only on
    (e, nfft). ``spectra`` maps those keys to spectra from earlier calls
    with the same kernels (empty at first); a block whose key it holds
    reuses that spectrum, and on return it holds exactly this call's keys.
    """
    n = b.size
    out = np.empty_like(kernels)
    with np.errstate(divide="ignore"):
        level = np.maximum.accumulate(z + np.log(b))
    bins = np.floor(level / _BLOCK_SPAN)
    starts = [0, *(np.flatnonzero(bins[1:] != bins[:-1]) + 1).tolist()]
    keys = [(e, 1 << (2 * e - 2 - s).bit_length()) for s, e in zip(starts, [*starts[1:], n])]
    for stale in spectra.keys() - set(keys):
        del spectra[stale]
    for s, (e, nfft) in zip(starts, keys):
        if (e, nfft) not in spectra:
            spectra[e, nfft] = np.fft.rfft(kernels[:, :e], nfft)
        g = np.exp(z[:e] - z[s]) * b[:e]
        full = np.fft.irfft(spectra[e, nfft] * np.fft.rfft(g, nfft), nfft)[:, s:e]
        full -= 0.5 * (kernels[:, s:e] * g[0] + kernels[:, :1] * g[s:e])
        full *= dt * np.exp(z[s] - z[s:e])
        np.maximum(full, 0.0, out=out[:, s:e])
    return out


def _sigma_grid(p0: InitialDensity, dt: float) -> np.ndarray:
    return uniform_grid(p0.support_end(), dt)


def _initial_cohorts(p0: InitialDensity, dt: float) -> tuple:
    """The ages sigma of the initial cohorts, p0 at them, and its trapezoid mass."""
    sigma = _sigma_grid(p0, dt)
    p0_vals = np.asarray(p0.evaluate(sigma), dtype=float)
    return sigma, p0_vals, trapezoid(p0_vals, dt)


class _SeparableSweep:
    """One fixed-point sweep for the separable model, via convolutions.

    A sweep maps the iterates (b, p) to new ones, updated on the nodes
    [s, e) of one window of ``window_rows`` nodes from the final values
    before s. This one has a single window, the whole grid, so ``s`` and
    ``e`` are 0 and N.
    """

    def __init__(self, model: GeneralModel, times: np.ndarray, dt: float):
        self.times = times
        self.dt = dt
        self.window_rows = times.size
        self.params = pr = model.separable.params
        self.feedback = model.separable.feedback
        self.survival = np.exp(-pr.mu0 * times)
        # renewal kernel (all fertility terms at once) and survival kernel
        self.kernels = np.stack((fertility_age_profile(times, pr) * self.survival, self.survival))
        self.spectra = {}  # the kernel spectra of the last sweep's blocks
        sigma, p0_vals, self.mass0 = _initial_cohorts(model.initial_density, dt)
        weighted = p0_vals * np.exp(-pr.rho * sigma)
        tail_moments = [trapezoid(sigma**j * weighted, dt) for j in range(pr.n)]
        # fertility of the initial cohorts at time t, less phi and survival:
        # exp(-rho t) * sum_i beta_i sum_j C(i, j) t^(i-j) M_j
        self.decay = np.exp(-pr.rho * times)
        self.poly = np.zeros_like(times)
        for i, beta_i in enumerate(pr.betas):
            self.poly += beta_i * sum(comb(i, j) * times ** (i - j) * tail_moments[j] for j in range(i + 1))

    def __call__(self, b: np.ndarray, p: np.ndarray, s: int = 0, e: Optional[int] = None):
        pr = self.params
        psi_int = cumulative_trapezoid(np.asarray(self.feedback.psi(p), dtype=float), self.dt)
        if psi_int[-1] + pr.mu0 * self.times[-1] > _EXP_GUARD:
            raise ParameterError("survival exponent overflow on the separable fast path")
        shrink = np.exp(-psi_int)
        phi_vals = pr.r0 * np.asarray(self.feedback.phi(p), dtype=float)

        renewal, p_integral = _damped_conv_integrals(self.kernels, psi_int, b, self.dt, self.spectra)
        renewal *= phi_vals

        survive0 = self.survival * shrink
        f_vals = phi_vals * survive0 * self.decay * self.poly
        g_vals = survive0 * self.mass0
        return renewal + f_vals, p_integral + g_vals


def _characteristic_rows(table: np.ndarray) -> np.ndarray:
    """Rows 1.. of a C-contiguous (n, w) rate table, skewed onto characteristics.

    ``out[r - 1, k] = table[r, r + k - (n - 1)]``: column k follows the
    characteristic whose age index is l = r + k - (n - 1) at row r. Entries
    with l < 0 (cohorts not born by row r) land on the old-age end of the
    row above, beyond any age that row's characteristics reach, so they are
    finite and never weighted; no entry is read twice.
    """
    n, w = table.shape
    flat = table.ravel()
    step = flat.itemsize
    return as_strided(flat[w - n + 2 :], shape=(n - 1, w), strides=((w + 1) * step, step), writeable=False)


class _GenericSweep:
    """One fixed-point sweep of one window with arbitrary rate evaluators.

    Everyone alive on the grid lies on a characteristic: the cohort born at
    node d, aged (m - d) dt at node m, or the initial cohort aged sigma_i =
    i dt, aged (m + i) dt at node m. Up to node e - 1, characteristic
    k = e - 1 - d or e - 1 + i (the cohort born at t = 0 and the newborn
    initial cohort share k = e - 1) has age index l = m + k - (e - 1) at
    node m, so every age met is a_l = l dt with l < e - 1 + N_sigma.

    The grid is cut into windows of ``_WINDOW_SPAN`` time units and at
    least ``_WINDOW_MIN_ROWS`` nodes. A sweep of window [s, e) calls each
    evaluator once, on the ages (1, e - 1 + N_sigma) against the sizes
    P(t_m) of its rows and of row s - 1, and ``_characteristic_rows`` skews
    that table to one row per node and one column per characteristic.
    Survival exponents build up row by row with the trapezoid step from
    those of row s - 1, carried over, unscaled, from the last sweep of the
    window before for every characteristic alive there; each cohort starts
    at 0 on its birth node. B and P on the window are then two
    matrix-vector products with one trapezoid weight vector (b reversed,
    then p0; the finished cohorts' weights come from the final b[:s]) less
    the half weight of the age-0 end.
    """

    def __init__(self, model: GeneralModel, times: np.ndarray, dt: float):
        self.model = model
        self.times = times
        self.dt = dt
        sigma, p0_vals, self.mass0 = _initial_cohorts(model.initial_density, dt)
        self.n_sigma = sigma.size
        self.ages = (np.arange(times.size - 1 + sigma.size) * dt)[None, :]
        # trapezoid weights of the initial cohorts; a one-node sigma grid has none
        self.p0_weights = np.zeros(sigma.size)
        if sigma.size > 1:
            self.p0_weights[:] = dt * p0_vals
            self.p0_weights[[0, -1]] *= 0.5
        self.window_rows = max(_WINDOW_MIN_ROWS, round(_WINDOW_SPAN / dt))
        self.start, self.carry, self.last_row = 0, None, None

    def _table(self, fn: Callable, width: int, sizes: np.ndarray, what: str) -> np.ndarray:
        """rate(a_l, P) for l < width as a C-contiguous (sizes, width) array."""
        return np.ascontiguousarray(_eval_rates(fn, self.ages[:, :width], sizes[:, None], what))

    def __call__(self, b: np.ndarray, p: np.ndarray, s: int = 0, e: Optional[int] = None):
        """B and P with new values on the nodes [s, e), by default the whole grid."""
        e = self.times.size if e is None else e
        dt = self.dt
        if s != self.start:  # a new window: the last sweep of the one before is final
            self.start, self.carry = s, self.last_row
        lo = max(s - 1, 0)
        rows, width = e - lo, e - 1 + self.n_sigma
        mu = self._table(self.model.mortality, width, p[lo:e], "mortality")
        # expo[r, k] accumulates mu[r - 1] + mu[r] along characteristic k
        # from the exponents of the characteristics alive at row lo, the
        # last k; cohorts not yet born hold +inf, so their survival is 0.
        # At t = 0 the initial cohorts and the one born then start at 0.
        expo = np.empty_like(mu)
        alive_lo = self.carry if s else np.zeros(self.n_sigma)
        expo[0, : width - alive_lo.size] = np.inf
        expo[0, width - alive_lo.size :] = alive_lo
        skew = _characteristic_rows(mu)
        # row lo in characteristic order: only cohorts born by then (k >= rows - 1)
        first = np.zeros(width)
        first[rows - 1 :] = mu[0, : width - rows + 1]
        np.add(skew[:1], first, out=expo[1:2])
        np.add(skew[1:], skew[:-1], out=expo[2:])
        del mu, skew
        for r in range(1, rows):
            expo[r] += expo[r - 1]
            expo[r, rows - 1 - r] = 0.0
        self.last_row = expo[-1].copy()
        alive = expo[s - lo :]  # the window's nodes s..e-1
        alive *= -0.5 * dt
        np.exp(alive, out=alive)

        # trapezoid weights: b at each cohort's birth node, with the t = 0
        # end halved, then the initial cohorts; the newborn end (age 0,
        # survival 1) is halved after the products
        weights = np.zeros(width)
        weights[e - 1 :] = self.p0_weights
        weights[:e] += dt * b[e - 1 :: -1]
        weights[e - 1] -= 0.5 * dt * b[0]
        new_p = p.copy()
        new_p[s:e] = alive @ weights - 0.5 * dt * b[s:e]

        beta = self._table(self.model.fertility, width, p[lo:e], "fertility")
        if s == 0:
            alive[1:] *= _characteristic_rows(beta)
            alive[0, rows - 1 :] *= beta[0, : width - rows + 1]  # row 0, as for mu
        else:
            alive *= _characteristic_rows(beta)
        new_b = b.copy()
        new_b[s:e] = alive @ weights - 0.5 * dt * b[s:e] * beta[s - lo :, 0]
        return new_b, new_p


def grid_steps(t_end, dt, tol=1e-10, k_max=DEFAULT_K_MAX, where: str = "") -> int:
    """Number of dt steps in the oracle horizon, at least one.

    Raises ParameterError unless t_end > 0 and dt > 0 are finite, dt divides t_end to within
    1e-9 * max(1, t_end) into at least one and fewer than MAX_GRID_NODES steps, tol > 0 and
    k_max >= 1. ``where`` prefixes each name in the message."""
    if not 0 < t_end < math.inf:
        raise ParameterError(f"{where}t_end must be positive and finite")
    if not 0 < dt < math.inf:
        raise ParameterError(f"{where}dt must be positive and finite")
    if not t_end / dt < MAX_GRID_NODES:
        raise ParameterError(f"{where}t_end / {where}dt needs more than {MAX_GRID_NODES} grid nodes")
    n_steps = round(t_end / dt)
    slack = 1e-9 * max(1.0, t_end)
    if n_steps < 1 or t_end < dt - slack:  # a single node
        raise ParameterError(f"{where}t_end must be at least {where}dt")
    if abs(n_steps * dt - t_end) > slack:
        raise ParameterError(f"oracle dt={dt!r} must divide the horizon t_end={t_end!r} evenly")
    if not (tol > 0 and k_max >= 1):
        raise ParameterError(f"{where}tol must be positive and {where}k_max at least 1")
    return n_steps


def volterra_solve(
    model: GeneralModel,
    t_end: float,
    dt: float,
    tol: float = 1e-10,
    k_max: int = DEFAULT_K_MAX,
) -> OracleSolution:
    """Fixed-point solve of the coupled B/P renewal equations, window by window.

    All integrals use composite trapezoid on the uniform grid, and the
    system is lower-triangular in time. It is solved over windows [s, e) of
    nodes (block Gauss-Seidel): nodes before s are final, and Picard sweeps
    update only the unknowns inside the window. The separable fast path
    takes one window, the whole grid; the generic path short ones. Each
    window starts from the last final node (zero births and the initial
    mass at t = 0), runs one seeding sweep, and then sweeps until the
    sup-norm change of both B and P drops to its share of ``tol``,
    tol * (e - s) / N, which is ``tol`` itself for a single window. Raises
    ConvergenceError (carrying the last update norm and the sweep log, and
    naming the start of the window) if ``k_max`` sweeps of a window are not
    enough. Settings that ``grid_steps`` refuses raise ParameterError first.
    """
    t_end, dt = float(t_end), float(dt)
    times = np.linspace(0.0, t_end, grid_steps(t_end, dt, tol, k_max) + 1)
    n = times.size

    sweep = (_SeparableSweep if model.separable else _GenericSweep)(model, times, dt)
    starts = range(0, n, sweep.window_rows)
    b, p = np.zeros(n), np.full(n, sweep.mass0)
    iterations = sweeps = 0
    final_update = 0.0
    sweep_log = []
    for w, s in enumerate(starts, start=1):
        e = min(s + sweep.window_rows, n)
        if s:
            b[s:e], p[s:e] = b[s - 1], p[s - 1]
        share = tol * ((e - s) / n)
        prefix = f"{w}," if len(starts) > 1 else ""
        b, p = sweep(b, p, s, e)
        for k in range(1, k_max + 1):
            b_next, p_next = sweep(b, p, s, e)
            update = max(
                float(np.max(np.abs(b_next[s:e] - b[s:e]))),
                float(np.max(np.abs(p_next[s:e] - p[s:e]))),
            )
            sweep_log.append(f"{prefix}{k},{update:.6e}")
            b, p = b_next, p_next
            if update <= share:
                break
        else:
            raise ConvergenceError(
                f"fixed-point iteration stalled after {k_max} sweeps in the window from t={times[s]:g}",
                update_norm=update,
                iterations=k_max,
                sweep_log=tuple(sweep_log),
            )
        iterations, sweeps = max(iterations, k), sweeps + k
        final_update = max(final_update, update)
    return OracleSolution(
        times=times,
        birth_rates=np.maximum(b, 0.0),
        populations=np.maximum(p, 0.0),
        iterations=iterations,
        final_update=final_update,
        windows=len(starts),
        sweeps=sweeps,
        sweep_log=tuple(sweep_log),
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
) -> CrossValidationReport:
    """Solve the same separable model both ways and report the disagreement.

    The integral-equation route never sees the moment closure, and the ODE
    route never sees the renewal kernel, so the gaps measure genuine
    discretization error rather than shared bugs. The ODE side is run at
    tight tolerance so the gap is dominated by the oracle's O(dt^2) error.
    """
    model = from_separable(params, feedback, p0)
    oracle = volterra_solve(model, t_end, dt, tol=tol, k_max=k_max)
    start = density_moments(p0, params.rho, params.n)
    traj = integrate(
        start,
        params,
        feedback,
        t_end=t_end,
        method="rk45",
        rtol=1e-10,
        atol=1e-12,
        n_samples=oracle.times.size,  # np.linspace(0, t_end, N) on both sides: the same nodes
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
    )
