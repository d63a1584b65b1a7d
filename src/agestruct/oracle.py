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
input, and exp(Z) * B may span the whole float range, so one transform
over the whole grid would bury the early values. The kernels absorb the
least rate c at which Z climbs (mu0 + c, psi - c), and the grid is cut
into blocks, each forming its inputs exp(Z - c t) * B from logarithms
within exp(4) of one another, which keeps the error near exp(4) * eps of
the local size and every input finite (see ``_damped_conv_integrals``).
The path refuses only dt * r0 * betas[0] / 2 >= 1, where the trapezoid
node equation loses its one root (Linz 1985, ch. 7). A
block [s, e) transforms the tilted kernels cut to [:e] at the least 5-smooth
length nfft >= 2e - 1 - s, so each sweep keeps those spectra by
(c, e, nfft) and the next reuses the ones whose tilt and layout still hold.
A block does only what depends on it: its inputs, one forward and one
inverse transform, and the outputs on [s, e) with the values of its start
that each of its nodes needs. The trapezoid end terms, the rescale and the
clip at zero then run once over the grid, in scratch rows that every sweep
of a solve reuses.
Arbitrary ``mu(a, P)`` / ``beta(a, P)`` evaluators fall back to a dense
sweep over short windows.
A sweep of window [s, e) calls each evaluator once, on the ages alive by
node e - 1 against the sizes of rows s - 1 .. e - 1, and accepts any result
that broadcasts to that table. A strided view reads the table along
characteristics (cohorts), and the survival exponents of row s - 1 are
carried over from the window before, so survival and both renewal integrals
come from window-table array passes and two matrix-vector products (see
``_GenericSweep``). The exponent table lives in a buffer that every sweep
of a solve reuses, and a mortality of size alone adds one sum per row.
"""

from __future__ import annotations

import functools
import math
import numbers
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
from .quadrature import MAX_GRID_NODES, cumulative_trapezoid, trapezoid, uniform_steps
from .reduction import integrate

#: iteration cap used when callers do not specify one
DEFAULT_K_MAX = 200
#: rise of the log convolution input allowed inside one rescaled FFT block
_BLOCK_SPAN = 4.0
#: time span of one window of the generic path, and its fewest rows: a
#: sweep has a fixed cost, which on coarse grids outweighs its table work
_WINDOW_SPAN = 0.15
_WINDOW_MIN_ROWS = 16


@dataclass(frozen=True, eq=False)
class GeneralModel:
    """Age-and-size dependent vital rates plus the starting age profile.

    ``mortality`` and ``fertility`` are callables of (age, population size)
    over numpy arrays. The oracle calls each once per sweep of a window with
    ages of shape (1, W) and sizes of shape (R, 1), and accepts any result
    that broadcasts to (R, W), such as a scalar or a size-only (R, 1)
    column; a callable that rejects arrays raises ParameterError. Such a
    model takes the generic path; ``from_separable`` builds one that takes
    the fast path.
    Both paths solve the same discrete scheme, so their results agree to the
    fixed-point tolerance, not bit for bit (the benchmark holds them to 1e-10).
    """

    mortality: Callable
    fertility: Callable
    initial_density: InitialDensity
    separable = False


@dataclass(frozen=True, eq=False)
class SeparableModel:
    """The separable model: mortality mu0 + psi(P) and fertility r0 * phi(P) times the age profile."""

    params: ModelParams
    feedback: FeedbackSpec
    initial_density: InitialDensity
    separable = True

    def mortality(self, a, p):
        return self.params.mu0 + self.feedback.psi(p)

    def fertility(self, a, p):
        return self.params.r0 * self.feedback.phi(p) * fertility_age_profile(a, self.params)


def from_separable(params: ModelParams, feedback: FeedbackSpec, p0: InitialDensity) -> SeparableModel:
    """The separable model of these ingredients; the oracle's fast path reads its params and feedback."""
    return SeparableModel(params, feedback, p0)


def _eval_rates(fn: Callable, ages, sizes, what: str) -> np.ndarray:
    """Evaluate rate(age, size) in one call on broadcast-compatible arrays.

    Any result that broadcasts to the shape of ``ages`` and ``sizes``
    together (a scalar, a size-only or an age-only array) is accepted,
    validated finite and nonnegative, and returned as a read-only view
    broadcast to that shape. A callable that rejects arrays, or a result
    of another shape, raises ParameterError naming the evaluator.
    """
    ages = np.asarray(ages, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    shape = np.broadcast_shapes(ages.shape, sizes.shape)
    try:
        out = np.asarray(fn(ages, sizes), dtype=float)
        table = np.broadcast_to(out, shape)
    except (TypeError, ValueError) as exc:
        raise ParameterError(
            f"{what} evaluator must take arrays and return a result that broadcasts to {shape} ({exc})"
        ) from exc
    # min and max propagate NaN, so the two reductions check every entry
    if not (out.min() >= 0.0 and out.max() < math.inf):
        raise ParameterError(f"{what} evaluator produced negative or non-finite values")
    return table


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


@functools.lru_cache(maxsize=4096)
def _fft_length(n: int) -> int:
    """The least 5-smooth number 2^a 3^b 5^c at least n >= 1, a fast FFT length."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # the least power-of-two multiple of p35 at least n
            best, p35 = min(best, p35 << (-(-n // p35) - 1).bit_length()), 3 * p35
        p5 *= 5
    return best


class _Spectra(dict):
    """The block spectra that ``_damped_conv_integrals`` keeps between calls, by (c, e, nfft), and
    the scratch rows over the kernels' n nodes it writes on every call: the node numbers 0..n-1,
    then r, log levels, the running level and then g_0, the block input, g_m and r_s, and one row
    per kernel for the transform outputs."""

    def __init__(self, kernels: np.ndarray):
        super().__init__()
        self.scratch = np.empty((7 + kernels.shape[0], kernels.shape[1]))
        self.scratch[0] = np.arange(kernels.shape[1])


def _damped_conv_integrals(
    kernels: np.ndarray, z: np.ndarray, b: np.ndarray, dt: float, spectra: _Spectra
) -> np.ndarray:
    """Trapezoid values of integral(0..t_m) k(t_m - s) exp(z(s) - z(t_m)) b(s) ds.

    One output row per kernel row, on n >= 2 nodes; ``z`` must be
    nondecreasing and ``b`` nonnegative. The kernels absorb the rate c, the
    largest multiple of ``_BLOCK_SPAN`` / T (T the horizon) at or below the
    least slope of z: r_j = z_j - c j dt is nondecreasing, and
    exp(z_j - z_m) = exp(-c (m - j) dt) exp(r_j - r_m) makes the kernels
    k(l dt) exp(-c l dt). Blocks [s, e) of targets end where level_m =
    max_{j<=m} (r_j + log b_j), the log of the largest entry of exp(r) * b
    so far, crosses a multiple of ``_BLOCK_SPAN``; a growing b needs this as
    much as a growing r. A block convolves g_j = exp(r_j + log b_j - r_s)
    for j < e, at most exp(_BLOCK_SPAN) times its start level, hence max b,
    with the tilted kernels cut to [:e], at the least 5-smooth FFT length
    nfft >= 2e - 1 - s, so the circular wrap never lands in [s, e), the
    nodes it writes. The rest depends on a node m only through its block's
    r_s and g_0, which each block fills in with g_m, and runs once over all
    nodes: the trapezoid end terms (tilted_m g_0 + k_0 g_m) / 2 come off,
    the rescale dt exp(r_s - r_m) <= 1 goes on, and as the exact sums have
    nonnegative terms, the outputs are clipped at zero.

    A block's tilted kernels, spectrum and product buffer depend only on
    (c, e, nfft); ``spectra`` maps keys of earlier calls with these kernels
    to them, a block reuses those of its key, and it ends with this call's.
    ``spectra`` also lends its scratch rows, which no returned array shares.
    """
    n = b.size
    steps, r, logs, g_0, g, g_m, r_s = spectra.scratch[:7]
    sums = spectra.scratch[7:]  # each kernel's transform output on the nodes of its block
    unit = _BLOCK_SPAN / ((n - 1) * dt)
    c = unit * max(math.floor(float(np.subtract(z[1:], z[:-1], out=r[1:]).min()) / dt / unit), 0)
    np.subtract(z, np.multiply(steps, c * dt, out=r), out=r)
    with np.errstate(divide="ignore"):
        np.log(b, out=logs)
    logs += r
    level = np.maximum.accumulate(logs, out=g_0)  # g_0 is written once the blocks are cut
    bins = np.floor(np.divide(level, _BLOCK_SPAN, out=level), out=level)
    starts = [0, *(np.flatnonzero(bins[1:] != bins[:-1]) + 1).tolist()]
    keys = [(c, e, _fft_length(2 * e - 1 - s)) for s, e in zip(starts, [*starts[1:], n])]
    for stale in spectra.keys() - set(keys):
        del spectra[stale]
    for s, key in zip(starts, keys):
        e, nfft = key[1:]
        if key not in spectra:
            tilted = kernels[:, :e] * np.exp(-c * dt * np.arange(e))
            spectrum = np.fft.rfft(tilted, nfft)
            spectra[key] = tilted, spectrum, np.empty_like(spectrum)
        tilted, spectrum, product = spectra[key]
        np.exp(np.subtract(logs[:e], r[s], out=g[:e]), out=g[:e])
        np.multiply(spectrum, np.fft.rfft(g[:e], nfft), out=product)
        sums[:, s:e] = np.fft.irfft(product, nfft)[:, s:e]
        g_0[s:e], g_m[s:e], r_s[s:e] = g[0], g[s:e], r[s]

    # once over the grid, with the last block's tilted kernels, which span it; the
    # output comes after the transforms, so fewer arrays are alive while those run
    out = np.empty_like(kernels)
    for row, full, tilted_row, k_0 in zip(out, sums, tilted, kernels[:, 0]):
        ends = np.multiply(tilted_row, g_0, out=g)
        ends += np.multiply(g_m, k_0, out=logs)
        ends *= 0.5
        np.subtract(full, ends, out=row)
    out *= np.multiply(np.exp(np.subtract(r_s, r, out=r_s), out=r_s), dt, out=r_s)
    return np.maximum(out, 0.0, out=out)


def initial_cohort_steps(p0: InitialDensity, dt: float, where: str = "") -> int:
    """Steps of dt over the initial cohorts' ages [0, p0.support_end()]; ParameterError, prefixed
    by ``where``, where those need more than MAX_GRID_NODES nodes (see ``uniform_steps``)."""
    return uniform_steps(p0.support_end(), dt, where)


def _initial_cohorts(p0: InitialDensity, dt: float) -> tuple:
    """The ages sigma of the initial cohorts, p0 at them, and its trapezoid mass."""
    n = initial_cohort_steps(p0, dt)
    sigma = np.linspace(0.0, n * dt, n + 1)
    p0_vals = np.asarray(p0.evaluate(sigma), dtype=float)
    return sigma, p0_vals, trapezoid(p0_vals, dt)


class _SeparableSweep:
    """One fixed-point sweep for the separable model, via convolutions.

    A sweep maps the iterates (b, p) to new ones, updated on the nodes
    [s, e) of one window of ``window_rows`` nodes from the final values
    before s. This one has a single window, the whole grid, so ``s`` and
    ``e`` are 0 and N. ParameterError where ``check_solvable`` refuses dt.
    """

    def __init__(self, model: SeparableModel, times: np.ndarray, dt: float):
        self.times = times
        self.dt = dt
        self.window_rows = times.size
        self.params = pr = model.params
        check_solvable(pr, dt)
        self.feedback = model.feedback
        self.survival = np.exp(-pr.mu0 * times)
        # renewal kernel (all fertility terms at once) and survival kernel
        self.kernels = np.stack((fertility_age_profile(times, pr) * self.survival, self.survival))
        self.spectra = _Spectra(self.kernels)  # the last sweep's block spectra, and the scratch
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
        if not psi_int[-1] < math.inf:
            raise ParameterError("the crowding mortality integral leaves the float range on the separable fast path")

        # survival and phi come after the transforms, so fewer arrays are alive while those
        # run; psi_int and phi_vals are this sweep's own, so the products land in them
        renewal, p_integral = _damped_conv_integrals(self.kernels, psi_int, b, self.dt, self.spectra)
        survive0 = np.exp(np.negative(psi_int, out=psi_int), out=psi_int)
        survive0 *= self.survival
        phi_vals = pr.r0 * np.asarray(self.feedback.phi(p), dtype=float)
        renewal *= phi_vals
        phi_vals *= survive0
        phi_vals *= self.decay
        phi_vals *= self.poly
        renewal += phi_vals
        survive0 *= self.mass0
        p_integral += survive0
        return renewal, p_integral


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
        # the exponent table that every sweep reuses, sized for the last, widest window
        self.expo_flat = np.empty(min(self.window_rows + 1, times.size) * self.ages.shape[1])

    def __call__(self, b: np.ndarray, p: np.ndarray, s: int = 0, e: Optional[int] = None):
        """B and P with new values on the nodes [s, e), by default the whole grid."""
        e = self.times.size if e is None else e
        dt = self.dt
        if s != self.start:  # a new window: the last sweep of the one before is final
            self.start, self.carry = s, self.last_row
        lo = max(s - 1, 0)
        rows, width = e - lo, e - 1 + self.n_sigma
        ages, sizes = self.ages[:, :width], p[lo:e, None]
        mu = _eval_rates(self.model.mortality, ages, sizes, "mortality")
        # expo[r, k] accumulates mu[r - 1] + mu[r] along characteristic k
        # from the exponents of the characteristics alive at row lo, the
        # last k; cohorts not yet born hold +inf, so their survival is 0.
        # At t = 0 the initial cohorts and the one born then start at 0.
        if self.expo_flat.size < rows * width:  # a wider call, such as the whole grid at once
            self.expo_flat = np.empty(rows * width)
        expo = self.expo_flat[: rows * width].reshape(rows, width)
        alive_lo = self.carry if s else np.zeros(self.n_sigma)
        expo[0, : width - alive_lo.size] = np.inf
        expo[0, width - alive_lo.size :] = alive_lo
        # row lo in characteristic order: only cohorts born by then (k >= rows - 1)
        first = np.zeros(width)
        first[rows - 1 :] = mu[0, : width - rows + 1]
        if mu.strides[1]:  # rates that vary with age, read along the characteristics
            skew = _characteristic_rows(np.ascontiguousarray(mu))
            np.add(skew[:1], first, out=expo[1:2])
            np.add(skew[1:], skew[:-1], out=expo[2:])
        else:  # a rate of size alone: each row adds one sum to every characteristic
            np.add(mu[1, 0], first, out=expo[1])
            expo[2:] = mu[2:, :1] + mu[1:-1, :1]
        del mu
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

        beta = np.ascontiguousarray(_eval_rates(self.model.fertility, ages, sizes, "fertility"))
        if s == 0:
            alive[1:] *= _characteristic_rows(beta)
            alive[0, rows - 1 :] *= beta[0, : width - rows + 1]  # row 0, as for mu
        else:
            alive *= _characteristic_rows(beta)
        new_b = b.copy()
        new_b[s:e] = alive @ weights - 0.5 * dt * b[s:e] * beta[s - lo :, 0]
        return new_b, new_p


def check_solvable(params: ModelParams, dt: float, where: str = "oracle ") -> None:
    """ParameterError, naming ``where`` + dt, unless dt * r0 * betas[0] / 2 < 1, which, as
    phi <= phi(0) = 1, gives every node equation of the separable trapezoid scheme one root."""
    if not 0.5 * dt * params.r0 * params.betas[0] < 1.0:
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


def volterra_solve(
    model: GeneralModel | SeparableModel,
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
        oracle=oracle,
        ode_populations=ode_p,
        ode_birth_rates=ode_b,
    )
