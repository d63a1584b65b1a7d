"""Independent integral-equation solver used to cross-check the moment ODEs.

The renewal process is solved directly as a pair of Volterra equations for
the birth rate B(t) and population size P(t), discretized with composite
trapezoid on a uniform grid and iterated to a fixed point. Nothing here
shares code with the ODE reduction, so agreement between the two is a real
consistency check and not a tautology.

The trapezoid system is lower-triangular in time, so it is solved window
by window (block Gauss-Seidel): nodes before a window are final and Picard
sweeps update only the window's unknowns, each window stopping at its share
of the tolerance (see ``volterra_solve``). Each window after the first starts
from the least-squares polynomial of degree 6 through the final values of the
window before, extrapolated onto its nodes and clipped at zero (Linz 1985,
ch. 7, on starting values for Volterra equations).

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
node equation loses its one root (Linz 1985, ch. 7). A sweep of few blocks
transforms them in groups: the blocks ending in (n/2, n], (n/4, n/2], ...
make one stacked forward and one inverse transform each, and each sweep
keeps the group spectra by (c, E, nfft) for the next. A block forms only its
inputs and the values of its start that each of its nodes needs; the
trapezoid end terms, the rescale and the clip at zero run once over the grid,
in scratch rows that every sweep of a solve reuses. Each group still
transforms the whole history of its blocks, so a sweep of k blocks costs
about k N log N. A sweep whose blocks outnumber the bits of N splits sources
and targets dyadically instead (Hairer, Lubich & Schlichte 1985): 64-node
triangles, and squares of each size that pair the sources in one half of an
interval with the targets in the other, one product per size, each square
scaled by its own sources' largest level; it costs O(N log^2 N) however many
blocks there are, and its tables are kept by (c, N).
A separable solve first solves its coarser grids, 2 dt, 4 dt, ..., and
starts from their Richardson prediction (see ``volterra_solve``).
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
The grid and step checks (``grid_steps``, ``check_solvable``,
``initial_cohort_steps``, ``DEFAULT_K_MAX``) live in ``quadrature``, so that
the config reader need not load this module; they are imported here too.
"""

from __future__ import annotations

import functools
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
from .quadrature import (
    DEFAULT_K_MAX,
    _solvable,
    check_solvable,
    cumulative_trapezoid,
    grid_steps,
    initial_cohort_steps,
    trapezoid,
)
from .reduction import integrate

#: rise of the log convolution input allowed inside one rescaled FFT block
_BLOCK_SPAN = 4.0
#: nodes of one diagonal triangle of the dyadic split, the widest of its squares formed by a
#: matrix product rather than by FFT, and the most a leaf's largest log level may exceed r at
#: its first node: the leaf's outputs carry exp of that
_LEAF = 64
_MATMUL_MAX = 128
_LEAF_RISE = 600.0
#: time span of one window of the generic path, and its fewest rows: a
#: sweep has a fixed cost, which on coarse grids outweighs its table work
_WINDOW_SPAN = 0.15
_WINDOW_MIN_ROWS = 16
#: fewest steps of a coarser grid that starts a separable solve (see ``volterra_solve``): below a
#: few hundred steps a sweep is mostly fixed cost, and the start it gives is poorer
_CHAIN_MIN_STEPS = 500
#: degree of the least-squares polynomial through one window that starts the next (see
#: ``_window_predictor``): a higher degree amplifies the tol-level residue of the window
#: before, a lower one misses transients
_PREDICTOR_DEGREE = 6


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

    ``iterations`` is the most counted sweeps any one window or grid took
    and ``sweeps`` their total; a solve of one window on one grid has
    ``sweeps == iterations``. Each generic window, and only the coarsest
    separable grid, also runs one uncounted seeding sweep. ``final_update``
    is the largest last update of any window of the requested grid.
    ``sweep_log`` holds one line per counted sweep: ``k,update`` for one
    window on one grid, else ``w,k,update`` (window w from 1) or
    ``g,k,update`` (grid g from the coarsest).
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
    """The group spectra that ``_damped_conv_integrals`` keeps between calls, by (c, E, nfft),
    with the product buffer of a one-block group, or the tables of its dyadic split by (c, n),
    and the scratch rows over the kernels' n nodes it writes on every call: the node numbers
    0..n-1, then r, log levels, the running level and then g_0, a lone block's input, g_m and
    r_s, and one row per kernel for the transform outputs."""

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
    with the tilted kernels. Group k holds the blocks whose
    (n - 1) // (e - 1) has bit length k (e = 1 counts as 2). A group ending
    at E makes one stacked rfft of its blocks' rows of g, each zero past its
    e, one product with the kernels cut to [:E] and one stacked irfft, at
    the least 5-smooth nfft >= E - 1 + its longest block, so the wrap never
    lands in [s, e). The rest depends on a node m only through its block's
    r_s and g_0, which each block fills in with g_m, and runs once over all
    nodes: the trapezoid end terms (tilted_m g_0 + k_0 g_m) / 2 come off,
    the rescale dt exp(r_s - r_m) <= 1 goes on, and as the exact sums have
    nonnegative terms, the outputs are clipped at zero.

    A group's tilted kernels and spectrum depend only on (c, E, nfft);
    ``spectra`` maps keys of earlier calls with these kernels to them, a
    group reuses those of its key, and it ends with this call's.
    ``spectra`` also lends its scratch rows, which no returned array shares.

    The groups cost about k N log N for k blocks. A call whose blocks
    outnumber n.bit_length() takes the dyadic split of ``_split_sums``
    instead, at O(N log^2 N), unless a leaf's largest log level exceeds r at
    the leaf's first node by ``_LEAF_RISE`` or more, which would take the
    leaf's exp(R - r_m) near the float range. Its tables depend only on
    (c, n) and are kept under that key. Each of its squares scales its
    sources by their own largest log level R <= level_m, for each of its
    targets m, so an FFT square errs by about eps exp(R - r_m) <= eps
    exp(level_m - r_m): no more than a block, whose inputs reach
    exp(_BLOCK_SPAN) times its start level. The leaves and the squares up
    to ``_MATMUL_MAX`` are matrix products of nonnegative terms, whose
    round-off is relative to each sum.
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
    starts = [0, *(np.nonzero(bins[1:] != bins[:-1])[0] + 1).tolist()]
    if len(starts) > n.bit_length() and (
        np.max(np.maximum.reduceat(logs, range(0, n, _LEAF)) - r[::_LEAF]) < _LEAF_RISE
    ):
        if (c, n) not in spectra:  # else it is the only key, as each call keeps only its own
            spectra.clear()
            spectra[c, n] = _split_tables(kernels, c * dt)
        out = _split_sums(spectra[c, n], r, logs)
        out *= dt
        return np.maximum(out, 0.0, out=out)
    # the blocks ending in (n/2, n], (n/4, n/2], ... form one group, transformed together
    groups = {}
    for s, e in zip(starts, [*starts[1:], n]):
        groups.setdefault(((n - 1) // max(e - 1, 1)).bit_length(), []).append((s, e))
    groups = {
        (c, group[-1][1], _fft_length(group[-1][1] - 1 + max(e - s for s, e in group))): group
        for group in groups.values()
    }
    for stale in spectra.keys() - groups.keys():
        del spectra[stale]
    for key, group in groups.items():
        top, nfft = key[1:]
        if key not in spectra:
            tilted = kernels[:, :top] * np.exp(-c * dt * np.arange(top))
            spectrum = np.fft.rfft(tilted, nfft)[:, None]
            spectra[key] = tilted, spectrum, np.empty_like(spectrum)
        tilted, spectrum, product = spectra[key]
        # a lone block fills the scratch row g and the kept product; a group's rows span nfft,
        # so the inverse transform's output fits where they were once they are freed
        if len(group) == 1:
            rows = g[None, :top]
        else:
            rows, product = np.zeros((len(group), nfft)), None
        for i, (s, e) in enumerate(group):
            np.exp(np.subtract(logs[:e], r[s], out=rows[i, :e]), out=rows[i, :e])
            g_0[s:e], g_m[s:e], r_s[s:e] = rows[i, 0], rows[i, s:e], r[s]
        product = np.multiply(spectrum, np.fft.rfft(rows, nfft), out=product)
        del rows
        full = np.fft.irfft(product, nfft)
        for i, (s, e) in enumerate(group):
            sums[:, s:e] = full[:, i, s:e]
        del full  # before the next group's, and the output, are allocated

    # once over the grid, with the last group's tilted kernels, which span it; the
    # output comes after the transforms, so fewer arrays are alive while those run
    out = np.empty_like(kernels)
    for row, full, tilted_row, k_0 in zip(out, sums, tilted, kernels[:, 0]):
        ends = np.multiply(tilted_row, g_0, out=g)
        ends += np.multiply(g_m, k_0, out=logs)
        ends *= 0.5
        np.subtract(full, ends, out=row)
    out *= np.multiply(np.exp(np.subtract(r_s, r, out=r_s), out=r_s), dt, out=r_s)
    return np.maximum(out, 0.0, out=out)


def _split_tables(kernels: np.ndarray, tilt: float) -> list:
    """The tables of ``_split_sums`` for kernels tilted by exp(-tilt l) at lag l: the leaf
    matrix, then one per square size h = _LEAF, 2 _LEAF, ... below the padded grid's size."""
    k, n = kernels.shape
    size = _LEAF << ((n - 1) // _LEAF).bit_length()
    tilted = np.zeros((k, size))  # lags past the grid meet no target on it
    tilted[:, :n] = kernels * np.exp(-tilt * np.arange(n))
    lags = np.subtract.outer(np.arange(_LEAF), np.arange(_LEAF))  # [target, source]
    leaf = np.where(lags >= 0, tilted[:, np.maximum(lags, 0)], 0.0)
    leaf[:, range(_LEAF), range(_LEAF)] *= 0.5  # the trapezoid's half weight at s = t_m
    # each matrix maps a row of sources to its targets of every kernel: [source, kernel * h + target]
    tables = [leaf.transpose(2, 0, 1).reshape(_LEAF, k * _LEAF)]
    for h in (_LEAF << d for d in range((size // _LEAF).bit_length() - 1)):
        if h <= _MATMUL_MAX:
            square = tilted[:, h + np.subtract.outer(np.arange(h), np.arange(h))]
            tables.append(square.transpose(2, 0, 1).reshape(h, k * h))
        else:
            tables.append(np.fft.rfft(tilted[:, : 2 * h], 2 * h)[:, None])
    return tables


def _split_sums(tables: list, r: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """Trapezoid sums of tilted(m - j) exp(logs_j - r_m) over j <= m, by the dyadic split.

    The grid is padded to a power-of-two multiple of ``_LEAF`` nodes, logs
    with -inf and r with its last value. Each leaf of ``_LEAF`` nodes is its
    own sources and targets, a triangle; each square pairs the sources in the
    first half of an interval of 2h nodes with the targets in its second
    half, at lags 1 .. 2h - 1. All squares of one size are one product: a
    matrix product, or one stacked rfft/irfft pair of length 2h, where those
    lags meet no wrap. Only leaves and squares whose targets start on the
    grid are formed. Each scales its sources by their largest log level R (by
    r_0 if they are all -inf), so every input is at most 1, and multiplies
    its outputs by exp(R - r_m). The half weight of j = 0 enters the inputs,
    that of j = m the leaf tables.
    """
    n = logs.size
    k = tables[0].shape[1] // _LEAF
    size = _LEAF << (len(tables) - 1)
    padded = np.full((2, size), -np.inf)  # log levels, then r
    padded[0, :n], padded[1, :n], padded[1, n:] = logs, r, r[-1]
    out = np.zeros((k, size))
    top = padded[0].reshape(-1, _LEAF).max(axis=1)  # each leaf's largest log level
    # leaves are intervals of one part of h nodes, squares intervals of two: sources, then targets
    h, parts = _LEAF, 1
    for table in tables:
        count = -(-(n - (parts - 1) * h) // (parts * h))
        scale = top[: parts * count : parts]
        scale = np.where(scale > -np.inf, scale, r[0])
        grid = padded[:, : parts * h * count].reshape(2, count, parts, h)
        x = np.exp(np.subtract(grid[0, :, 0], scale[:, None]))
        x[0, 0] *= 0.5
        if table.ndim == 2:
            y = (x @ table).reshape(count, k, h).transpose(1, 0, 2)
        else:
            y = np.fft.irfft(np.fft.rfft(x, 2 * h) * table, 2 * h)[..., h:]
        y *= np.exp(np.subtract(scale[:, None], grid[1, :, -1]))
        out.reshape(k, -1, parts, h)[:, :count, -1] += y
        if parts == 2:
            top, h = np.maximum(top[0::2], top[1::2]), 2 * h
        parts = 2
    out = out[:, :n]
    out[:, 0] = 0.0
    return out


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


def _refine(x: np.ndarray) -> np.ndarray:
    """Rows x on m + 1 >= 4 nodes, on the grid of half the step: x at the even nodes and, between
    them, the cubic through the four nearest nodes, one-sided at the ends."""
    out = np.empty((x.shape[0], 2 * x.shape[1] - 1))
    out[:, ::2] = x
    out[:, 3:-3:2] = (9.0 * (x[:, 1:-2] + x[:, 2:-1]) - x[:, :-3] - x[:, 3:]) / 16.0
    out[:, 1] = (5.0 * x[:, 0] + 15.0 * x[:, 1] - 5.0 * x[:, 2] + x[:, 3]) / 16.0
    out[:, -2] = (5.0 * x[:, -1] + 15.0 * x[:, -2] - 5.0 * x[:, -3] + x[:, -4]) / 16.0
    return out


@functools.lru_cache(maxsize=8)
def _window_predictor(rows: int) -> np.ndarray:
    """The (rows x rows) matrix that maps values on nodes 0..rows-1 to their least-squares
    polynomial of degree ``_PREDICTOR_DEGREE`` on nodes rows..2 rows-1, read-only.

    Legendre polynomials by their three-term recurrence, on the old nodes mapped to [-1, 1],
    give a well-conditioned basis; modified Gram-Schmidt over the old nodes, with every step
    applied on the new nodes too, makes it orthonormal there. The fit of values y then has the
    coefficients Q_old^T y, and on the new nodes the values Q_new Q_old^T y. The product is a
    sum of outer products: a matrix product would have the BLAS map a buffer of its own, which
    added about 0.2 MB to the peak memory of a generic solve.
    """
    x = np.arange(2 * rows) * (2.0 / (rows - 1)) - 1.0
    basis = np.empty((_PREDICTOR_DEGREE + 1, 2 * rows))
    basis[0], basis[1] = 1.0, x
    for k in range(1, _PREDICTOR_DEGREE):
        basis[k + 1] = ((2 * k + 1) * x * basis[k] - k * basis[k - 1]) / (k + 1)
    for k, q in enumerate(basis):
        for done in basis[:k]:
            q -= (done[:rows] @ q[:rows]) * done
        q /= math.sqrt(q[:rows] @ q[:rows])
    predictor = sum(np.multiply.outer(q[rows:], q[:rows]) for q in basis)
    predictor.flags.writeable = False
    return predictor


def _picard(sweep, b: np.ndarray, p: np.ndarray, s: int, e: int, share: float, k_max: int, prefix: str, log: list):
    """Sweeps of the nodes [s, e) from (b, p) until the sup-norm change of both B and P there is at
    most ``share``: the iterates, the sweeps and the last update. Each sweep logs one
    ``{prefix}k,update`` line; ConvergenceError after ``k_max``, naming the time of node s."""
    for k in range(1, k_max + 1):
        b_next, p_next = sweep(b, p, s, e)
        update = max(float(np.max(np.abs(b_next[s:e] - b[s:e]))), float(np.max(np.abs(p_next[s:e] - p[s:e]))))
        log.append(f"{prefix}{k},{update:.6e}")
        b, p = b_next, p_next
        if update <= share:
            return b, p, k, update
    message = f"fixed-point iteration stalled after {k_max} sweeps in the window from t={sweep.times[s]:g}"
    raise ConvergenceError(message, update_norm=update, iterations=k_max, sweep_log=tuple(log))


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
    takes one window, the whole grid; the generic path short ones. The
    first window starts from zero births and the initial mass, each later
    one from ``_window_predictor``'s extrapolation of the window before,
    clipped at zero. A window runs one seeding sweep, and then sweeps until the
    sup-norm change of both B and P drops to its share of ``tol``,
    tol * (e - s) / N, which is ``tol`` itself for a single window. Raises
    ConvergenceError (carrying the last update norm and the sweep log, and
    naming the start of the window) if ``k_max`` sweeps of a window are not
    enough. Settings that ``grid_steps`` refuses raise ParameterError first.

    The separable path first solves the grids of 2 dt, 4 dt, ... while the
    step count is even, the coarser dt passes ``check_solvable`` and the
    coarser grid keeps ``_CHAIN_MIN_STEPS`` steps. Only the coarsest seeds;
    each finer grid starts from (5 x_2dt - x_4dt) / 4 (x_2dt on the second)
    on the coarse nodes, ``_refine``'s cubic between, clipped at zero. If a
    coarser grid raises, the requested grid is solved cold, on its own.
    """
    t_end, dt = float(t_end), float(dt)
    n_steps = grid_steps(t_end, dt, tol, k_max)
    levels = 0  # the coarsest grid has n_steps >> levels steps of dt * 2**levels
    while (model.separable and (n_steps >> levels) % 2 == 0 and n_steps >> levels + 1 >= _CHAIN_MIN_STEPS
           and _solvable(model.params, dt * 2 ** (levels + 1))):
        levels += 1
    start = refined = None
    counts, sweep_log = [], []
    try:
        for g, level in enumerate(range(levels, 0, -1), start=1):
            m = n_steps >> level
            coarse = _SeparableSweep(model, np.linspace(0.0, t_end, m + 1), dt * 2**level)
            if start is None:
                start = coarse(np.zeros(m + 1), np.full(m + 1, coarse.mass0))
            b, p, k, _ = _picard(coarse, *start, 0, m + 1, tol, k_max, f"{g},", sweep_log)
            counts.append(k)
            x = np.stack((b, p))
            start = np.maximum(_refine(x if refined is None else (5.0 * x - refined) / 4.0), 0.0)
            refined = _refine(x)
    except (ConvergenceError, ParameterError):
        start, counts, sweep_log = None, [], []
    coarse = refined = x = None  # release the coarser grids' arrays before the requested grid's exist
    times = np.linspace(0.0, t_end, n_steps + 1)
    n = times.size

    sweep = (_SeparableSweep if model.separable else _GenericSweep)(model, times, dt)
    rows = sweep.window_rows
    starts = range(0, n, rows)
    b, p = (np.zeros(n), np.full(n, sweep.mass0)) if start is None else start
    iterations, sweeps = max(counts, default=0), sum(counts)
    final_update = 0.0
    for w, s in enumerate(starts, start=1):
        e = min(s + rows, n)
        if s:  # predicted from the window before, [s - rows, s), which is whole
            ahead = _window_predictor(rows)[: e - s]
            b[s:e], p[s:e] = np.maximum(ahead @ b[s - rows : s], 0.0), np.maximum(ahead @ p[s - rows : s], 0.0)
        if start is None:
            b, p = sweep(b, p, s, e)
        prefix = f"{w}," if len(starts) > 1 else f"{len(counts) + 1}," if counts else ""
        b, p, k, update = _picard(sweep, b, p, s, e, tol * ((e - s) / n), k_max, prefix, sweep_log)
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
