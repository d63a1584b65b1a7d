import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

import agestruct as ag
from agestruct import oracle
from agestruct.config import OracleSettings
from agestruct.errors import ConvergenceError, ParameterError
from agestruct.oracle import (
    DEFAULT_K_MAX,
    GeneralModel,
    _damped_conv_integrals,
    _eval_rates,
    _GenericSweep,
    _SeparableSweep,
    cross_validate,
    from_separable,
    volterra_solve,
)
from agestruct.quadrature import cumulative_trapezoid, trapezoid, uniform_grid

from conftest import make_linear, make_ref1, make_ref2


# --- grid handling and degenerate inputs -----------------------------------------


def test_single_node_horizon(ref2):
    p0 = ag.ExponentialDensity(coefficient=1.2, decay=1.1)
    model = from_separable(ref2.params, ref2.feedback, p0)
    dt = 0.5
    # a horizon below one step would leave a single node: it is refused
    for t_end in (0.3, 1e-12):
        with pytest.raises(ParameterError, match="^t_end must be at least dt$"):
            volterra_solve(model, t_end, dt)
    sol = volterra_solve(model, dt, dt)
    assert sol.times.tolist() == [0.0, dt]

    # both values at t = 0 are plain trapezoid functionals of the start data
    sigma = np.linspace(0.0, math.ceil(p0.support_end() / dt) * dt,
                        int(math.ceil(p0.support_end() / dt)) + 1)
    weighted = p0.evaluate(sigma) * np.exp(-ref2.params.rho * sigma)
    mass0 = trapezoid(p0.evaluate(sigma), dt)
    moments = [trapezoid(sigma**j * weighted, dt) for j in range(ref2.params.n)]
    b0 = ref2.params.r0 * float(ref2.feedback.phi(mass0)) * float(
        np.dot(ref2.params.betas, moments)
    )
    np.testing.assert_allclose(sol.populations[0], mass0, rtol=1e-12)
    np.testing.assert_allclose(sol.birth_rates[0], b0, rtol=1e-12)


@pytest.mark.parametrize("t_end, dt", [(3, 0.01), (0.3, 0.1), (10, 1e-3)], ids=["integer", "0.3-0.1", "fine"])
def test_cross_validate_samples_the_oracle_grid(ref1, monkeypatch, t_end, dt):
    # the ODE side samples by count; both sides build np.linspace(0, t_end, N)
    trajectories = []
    integrate = oracle.integrate

    def recorded(*args, **kwargs):
        trajectories.append(integrate(*args, **kwargs))
        return trajectories[-1]

    monkeypatch.setattr(oracle, "integrate", recorded)
    report = cross_validate(ref1.params, ref1.feedback, ref1.p0, t_end, dt)
    (traj,) = trajectories
    assert np.array_equal(traj.times, report.oracle.times)
    assert np.array_equal(report.ode_populations, traj.state_at(report.oracle.times)[:, 0])


def test_zero_density_is_trivial(ref1):
    p0 = ag.TabulatedDensity(ages=(0.0, 1.0), values=(0.0, 0.0))
    model = from_separable(ref1.params, ref1.feedback, p0)
    sol = volterra_solve(model, 1.0, 0.1)
    assert sol.iterations == 1
    assert np.all(sol.birth_rates == 0.0)
    assert np.all(sol.populations == 0.0)


def test_grid_validation(ref1):
    model = from_separable(ref1.params, ref1.feedback, ref1.p0)
    with pytest.raises(ParameterError, match="divide"):
        volterra_solve(model, 1.0, 0.3)
    with pytest.raises(ParameterError):
        volterra_solve(model, -1.0, 0.1)
    with pytest.raises(ParameterError):
        volterra_solve(model, 1.0, 0.1, tol=0.0)
    with pytest.raises(ParameterError):
        volterra_solve(model, 1.0, 0.1, k_max=0)
    # the config reader refuses these as it reads them; the solver does so in
    # the same words (an infinite tol would accept the first sweep)
    for kwargs, message in (
        ({"tol": math.inf}, "tol: must be finite"),
        ({"k_max": 2.5}, "k_max: expected an integer"),
        ({"k_max": math.inf}, "k_max: expected an integer"),
    ):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            volterra_solve(model, 1.0, 0.1, **kwargs)
    assert volterra_solve(model, 1.0, 0.1, k_max=np.int64(50)).iterations < 50  # numpy integers pass


def test_survival_exponent_guard():
    # mu0 = 400 takes the survival exponent to 800 by t = 2; the scheme
    # solves it, and refuses only a dt with dt * r0 * betas[0] / 2 >= 1,
    # where the node equation has no unique root (dt = 0.5 sits on it)
    params = ag.ModelParams(n=1, betas=(1.0,), rho=0.5, mu0=400.0, r0=4.0)
    feedback = ag.FeedbackSpec(
        phi_family=ag.make_phi("hill", k=1.0, m=1.0),
        psi_family=ag.make_psi("linear", c=1.0),
    )
    model = from_separable(params, feedback, ag.ExponentialDensity(1.5, 1.5))
    generic = GeneralModel(model.mortality, model.fertility, model.initial_density)
    fast, slow = volterra_solve(model, 2.0, 0.25), volterra_solve(generic, 2.0, 0.25)
    np.testing.assert_allclose(fast.birth_rates, slow.birth_rates, rtol=0, atol=1e-12)
    np.testing.assert_allclose(fast.populations, slow.populations, rtol=0, atol=1e-12)
    with pytest.raises(ParameterError, match=r"^oracle dt=0\.5 must be below 2 / \(r0 \* betas\[0\]\) = 0\.5$"):
        volterra_solve(model, 2.0, 0.5)


def test_unsolvable_grid_is_refused_before_any_sweep(ref1, monkeypatch):
    # r0 = 400 at dt = 0.01: dt * r0 * betas[0] / 2 = 2
    calls = []
    monkeypatch.setattr(oracle, "_damped_conv_integrals", lambda *args: calls.append(args))
    model = from_separable(ref1.params.with_r0(400.0), ref1.feedback, ref1.p0)
    with pytest.raises(ParameterError, match="dt=0.01 must be below .* = 0.005$"):
        volterra_solve(model, 10.0, 0.01)
    assert calls == []


def test_crowded_start_solves(ref1):
    # P0 = 2000/3: the first sweeps hold P near P0, so their crowding
    # integral reaches about 1300 by t = 2 while their births collapse; both
    # paths solve one scheme, and the cross-check keeps its second order
    p0 = ag.ExponentialDensity(coefficient=1e3, decay=1.5)
    fast = from_separable(ref1.params, ref1.feedback, p0)
    slow = GeneralModel(fast.mortality, fast.fertility, p0)
    a, b = volterra_solve(fast, 2.0, 0.01), volterra_solve(slow, 2.0, 0.01)
    np.testing.assert_allclose(a.birth_rates, b.birth_rates, rtol=0, atol=1e-10)
    np.testing.assert_allclose(a.populations, b.populations, rtol=0, atol=1e-10)
    coarse, fine = (cross_validate(ref1.params, ref1.feedback, p0, 0.5, dt).max_gap for dt in (2.5e-4, 1.25e-4))
    assert 1.8 <= math.log2(coarse / fine) <= 2.2


def test_crowding_integral_beyond_the_float_range_is_refused(ref1):
    # a power psi of a population near 1e300 reads inf
    feedback = ag.FeedbackSpec(
        phi_family=ag.make_phi("exponential", k=1.0),
        psi_family=ag.make_psi("power", c=1.0, gamma=2.0),
    )
    model = from_separable(ref1.params, feedback, ag.ExponentialDensity(1e300, 1.5))
    with pytest.raises(ParameterError, match="float range"):
        volterra_solve(model, 5.0, 0.01)


# --- solution quality -------------------------------------------------------------


def test_stationary_solution_ref1(ref1):
    model = from_separable(ref1.params, ref1.feedback, ref1.p0)
    sol = volterra_solve(model, 5.0, 0.002)
    assert np.max(np.abs(sol.populations - 1.0)) <= 1e-4
    assert np.max(np.abs(sol.birth_rates - 1.5)) <= 1e-4
    assert sol.final_update <= 1e-10


def test_linear_mode_closed_form_growth():
    # with feedback off the system is solvable by hand: p1' = p1 gives
    # B = 2 p1 = 1.5 e^t, and P' = -0.5 P + B with P(0) = 1 gives P = e^t
    fx = make_linear()
    model = from_separable(fx.params, fx.feedback, fx.p0)
    sol = volterra_solve(model, 2.0, 0.001)
    expect_b = 1.5 * np.exp(sol.times)
    expect_p = np.exp(sol.times)
    assert np.max(np.abs(sol.birth_rates - expect_b)) <= 2e-3
    assert np.max(np.abs(sol.populations - expect_p)) <= 2e-3


def _births_to_45_model():
    """A random-model example at T = 2, dt = 0.05, whose births reach 45."""
    params = ag.ModelParams(
        n=1, betas=ag.normalize_betas((1.0,), 2.5, 2.875), rho=2.5, mu0=2.875, r0=6.125, normalized=True
    )
    feedback = ag.FeedbackSpec(
        phi_family=ag.make_phi("hill", k=2.75, m=1.0), psi_family=ag.make_psi("linear", c=2.0)
    )
    return params, feedback, ag.ExponentialDensity(coefficient=3.0, decay=2.25)


@pytest.mark.parametrize("case, dt", [("ref2", 0.01), ("births-to-45", 0.05)], ids=["ref2", "births-to-45"])
def test_fast_and_generic_paths_agree(case, dt):
    # the structured convolution path (one window, the whole grid) and the
    # dense windowed path must be two encodings of the same discrete scheme,
    # not merely close; the stop rule is absolute, so the bound grows with |x|
    if case == "ref2":
        ref2 = make_ref2()
        params, feedback, p0 = ref2.params, ref2.feedback, ag.ExponentialDensity(coefficient=1.2, decay=1.1)
    else:
        params, feedback, p0 = _births_to_45_model()
    fast_model = from_separable(params, feedback, p0)
    slow_model = GeneralModel(
        mortality=fast_model.mortality,
        fertility=fast_model.fertility,
        initial_density=p0,
    )
    fast = volterra_solve(fast_model, 2.0, dt)
    slow = volterra_solve(slow_model, 2.0, dt)
    assert (fast.windows, fast.sweeps) == (1, fast.iterations)
    assert slow.windows > 1
    for got, want in ((fast.birth_rates, slow.birth_rates), (fast.populations, slow.populations)):
        assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))


def test_converged_point_is_fixed(ref1):
    model = from_separable(ref1.params, ref1.feedback, ref1.p0)
    dt = 0.01
    sol = volterra_solve(model, 2.0, dt, tol=1e-10)
    sweep = _SeparableSweep(model, sol.times, dt)
    b_next, p_next = sweep(sol.birth_rates, sol.populations)
    assert float(np.max(np.abs(b_next - sol.birth_rates))) <= 1e-10
    assert float(np.max(np.abs(p_next - sol.populations))) <= 1e-10


def _direct_damped_integrals(kernel, z, b, dt):
    """Trapezoid sums of kernel(t_m - t_j) exp(-(z_m - z_j)) b_j, one node at a time."""
    want = np.zeros(b.size)
    for m in range(1, b.size):
        terms = kernel[m::-1] * np.exp(z[: m + 1] - z[m]) * b[: m + 1]
        want[m] = dt * (np.sum(terms) - 0.5 * (terms[0] + terms[m]))
    return want


def _separable_kernels(fixture, times, dt):
    model = from_separable(fixture.params, fixture.feedback, fixture.p0)
    return _SeparableSweep(model, times, dt).kernels


def test_fft_length_is_the_least_5_smooth_number_above():
    def smooth(m):
        for f in (2, 3, 5):
            while m % f == 0:
                m //= f
        return m == 1

    for n in range(1, 5001):
        got = oracle._fft_length(n)
        assert got >= n and smooth(got)
        assert not any(smooth(m) for m in range(n, got))


def _tilt(z, dt):
    """The kernel tilt c of ``_damped_conv_integrals``, by its stated rule."""
    unit = oracle._BLOCK_SPAN / ((z.size - 1) * dt)
    return unit * max(math.floor(float(np.min(np.diff(z))) / dt / unit), 0)


def _blocks(z, b, dt):
    """The blocks [s, e) of ``_damped_conv_integrals`` by its stated rule."""
    n = b.size
    with np.errstate(divide="ignore"):
        level = np.maximum.accumulate(z - _tilt(z, dt) * dt * np.arange(n) + np.log(b))
    bins = np.floor(level / oracle._BLOCK_SPAN)
    starts = [0, *(np.flatnonzero(bins[1:] != bins[:-1]) + 1).tolist()]
    return list(zip(starts, [*starts[1:], n]))


def _takes_split(z, b, dt):
    """Whether ``_damped_conv_integrals`` takes the dyadic split, by its stated rule: more blocks
    than n has bits, and no leaf whose largest log level is _LEAF_RISE or more above its first r."""
    n, leaf = b.size, oracle._LEAF
    r = z - _tilt(z, dt) * dt * np.arange(n)
    with np.errstate(divide="ignore"):
        logs = r + np.log(b)
    rise = max(np.max(logs[s : s + leaf]) - r[s] for s in range(0, n, leaf))
    return len(_blocks(z, b, dt)) > n.bit_length() and rise < oracle._LEAF_RISE


def _kept_keys(z, b, dt):
    """The keys ``spectra`` holds after a call: the split's (c, n), or the blocks' (c, e, nfft)."""
    c = _tilt(z, dt)
    if _takes_split(z, b, dt):
        return {(c, b.size)}
    return {(c, e, oracle._fft_length(2 * e - 1 - s)) for s, e in _blocks(z, b, dt)}


def _split_taken(spectra):
    return any(len(key) == 2 for key in spectra)


def test_spectrum_reuse_keeps_every_bit(ref1, monkeypatch):
    # r0 = 20 from a bumped start moves the block ends and the kernel tilt
    # between sweeps (up to 12 blocks), and on the 626-node
    # grid a few sweeps cut more blocks than 626 has bits and take the split;
    # so both paths reuse kept state and make new; every bit must match a
    # solve that builds each spectrum and table afresh
    p0 = ag.ExponentialDensity(coefficient=1.65, decay=1.5)
    model = from_separable(ref1.params.with_r0(20.0), ref1.feedback, p0)
    damped = oracle._damped_conv_integrals
    layouts, blocks, reused = [], [], {False: 0, True: 0}

    def keeping(kernels, z, b, dt, spectra):
        keys, split = _kept_keys(z, b, dt), _takes_split(z, b, dt)
        reused[split] += len(spectra.keys() & keys)
        out = damped(kernels, z, b, dt, spectra)
        assert spectra.keys() == keys  # exactly this sweep's spectra or tables
        layouts.append((b.size, split, frozenset(keys)))
        blocks.append(len(_blocks(z, b, dt)))
        return out

    monkeypatch.setattr(oracle, "_damped_conv_integrals", keeping)
    kept = volterra_solve(model, 10.0, 0.002)
    monkeypatch.setattr(
        oracle, "_damped_conv_integrals", lambda k, z, b, dt, spectra: damped(k, z, b, dt, oracle._Spectra(k))
    )
    fresh = volterra_solve(model, 10.0, 0.002)
    assert max(blocks) == 12 and max(len(keys) for _, _, keys in layouts) > 1
    assert {(n, split) for n, split, _ in layouts} >= {(626, True), (626, False), (5001, False)}
    assert len(set(layouts)) > 1 and reused[False] > 0 and reused[True] > 0
    assert len({c for _, _, keys in layouts for c, *_ in keys}) > 1
    np.testing.assert_array_equal(kept.birth_rates, fresh.birth_rates)
    np.testing.assert_array_equal(kept.populations, fresh.populations)
    assert kept.sweep_log == fresh.sweep_log


def _swept(model, n, sweeps):
    """A separable sweep on n nodes of dt = 0.01, and its iterates after ``sweeps`` sweeps from zero
    births, as volterra_solve runs them on a cold grid."""
    dt = 0.01
    sweep = _SeparableSweep(model, np.linspace(0.0, (n - 1) * dt, n), dt)
    b, p = np.zeros(n), np.full(n, sweep.mass0)
    for _ in range(sweeps):
        b, p = sweep(b, p)
    return sweep, b, p


def _r0_100_input(n, sweeps):
    """Kernels, z, b and dt of ref1 at r0 = 100 on n nodes of dt = 0.01 after ``sweeps`` sweeps."""
    fixture = make_ref1(100.0)
    sweep, b, p = _swept(from_separable(fixture.params, fixture.feedback, fixture.p0), n, sweeps)
    return sweep.kernels, cumulative_trapezoid(fixture.feedback.psi(p), sweep.dt), b, sweep.dt


def _growing_input(n, rate):
    """Kernels of ref1 on n nodes of dt = 0.01, no crowding, and births growing like exp(rate t)."""
    dt = 0.01
    times = np.linspace(0.0, (n - 1) * dt, n)
    return _separable_kernels(make_ref1(), times, dt), np.zeros(n), np.exp(rate * times), dt


def _convolution_input(case):
    """Kernels, z, b and dt of one row of the direct-sum table."""
    n, dt = 401, 0.01
    times = np.linspace(0.0, (n - 1) * dt, n)
    wave = 1.0 + 0.5 * np.sin(3.0 * times)
    collapse = 1000.0 * (1.0 - np.exp(-3.0 * times))  # past 1000, 850 of it within the first leaf
    least = 40.0 * times + 3.0 * (1.0 - np.cos(times))  # a slope of at least 37 everywhere

    def on_grid(z, b):
        return _separable_kernels(make_ref1(), times, dt), z, b, dt

    return {
        "climb": lambda: on_grid(590.0 * (times / times[-1]) ** 1.5, wave),
        "growth": lambda: _growing_input(n, 5.0),
        "jump": lambda: on_grid(np.zeros(n), np.where(times < 2.0, 1.0, math.exp(30.0))),
        "collapse": lambda: on_grid(collapse, np.exp(-collapse) * wave),
        "least rate": lambda: on_grid(least, wave),
        "least rate growth": lambda: on_grid(least, np.exp(5.0 * times)),
        "split collapse": lambda: on_grid(collapse, np.exp(-0.6 * collapse) * wave),
        "steep leaf": lambda: on_grid(collapse, np.exp(-0.1 * collapse) * wave),
        "growing": lambda: _growing_input(n, 20.0),
        "one leaf": lambda: _growing_input(40, 100.0),
        "r0=100": lambda: _r0_100_input(1001, 4),
        "r0=100 T=40": lambda: _r0_100_input(4001, 8),
        "slow growth": lambda: _growing_input(4001, 1.0),
        "r0=100 early": lambda: _r0_100_input(1001, 2),
    }[case]()


# case, split (the route), fewest blocks, tilted (c > 0), and bound. Every row holds each output within
# 1e-12 of the largest and each normal output within 1e-12 of itself; every output past node 0 is
# normal, but a "collapse" needs only 40 to be; "growth" also holds each output within 1e-12 of b
_CONVOLUTION_ROWS = [
    ("climb", True, 100, True, "max"),  # z to 590: one FFT of exp(z) b would lose all below exp(590) eps
    ("growth", False, 4, False, "growth"),  # exp(5 t): a grid-wide FFT errs by exp(20) eps of early outputs
    ("jump", False, 2, False, "max"),  # b steps up by e^30: the cut there spares earlier outputs its round-off
    ("collapse", False, 1, False, "collapse"),  # b falls as fast as z climbs past exp's float range
    ("least rate", False, 4, True, "max"),  # the kernels take the tilt, the blocks the rest of z
    ("least rate growth", True, 8, True, "max"),
    ("split collapse", True, 60, False, "collapse"),  # log b falls by 0.6 z: the level climbs 0.4 z
    ("steep leaf", False, 60, False, "collapse"),  # by 0.1 z: the first leaf's level climbs 770
    ("growing", True, 8, False, "max"),  # births growing by e^80 over the grid
    ("one leaf", True, 8, False, "max"),  # e^39 on fewer nodes than a leaf
    ("r0=100", True, 8, True, "max"),  # its first four sweeps
    ("r0=100 T=40", True, 100, True, "max"),  # the long horizon, 147 blocks
    ("slow growth", False, 8, False, "max"),  # e^40 over 4001 nodes, 11 blocks
    ("r0=100 early", False, 8, False, "max"),  # before the blocks multiply, 8 of them
]


@pytest.mark.parametrize(
    "case, split, blocks, tilted, bound", [pytest.param(*row, id=row[0]) for row in _CONVOLUTION_ROWS]
)
def test_convolution_matches_direct_sum(case, split, blocks, tilted, bound):
    # both routes, the per-block loop and the dyadic split with its scaled
    # leaves and squares, keep every output to the direct sum's precision, on
    # fresh spectra and tables and on kept ones; no input is formed as exp(z),
    # so none overflows, and a steep first leaf keeps the loop
    kernels, z, b, dt = _convolution_input(case)
    assert len(_blocks(z, b, dt)) >= blocks and _takes_split(z, b, dt) == split
    assert (_tilt(z, dt) > 0) == tilted
    wants = [_direct_damped_integrals(kernel, z, b, dt) for kernel in kernels]
    kept = oracle._Spectra(kernels)
    for spectra in (oracle._Spectra(kernels), kept, kept):
        got = _damped_conv_integrals(kernels, z, b, dt, spectra)
        assert _split_taken(spectra) == split
        for row, want in zip(got, wants):
            err = np.abs(row - want)
            assert np.max(err) <= 1e-12 * np.max(want)
            if bound == "growth":
                assert np.all(err <= 1e-12 * b)
            normal = want >= np.finfo(float).tiny
            assert (normal.sum() >= 40) if bound == "collapse" else (normal.sum() == b.size - 1)
            assert np.all(err[normal] <= 1e-12 * want[normal])


def test_ref_layouts_keep_the_per_block_loop_and_r0_100_takes_the_split(monkeypatch):
    # the ref configs cut 1 to 3 blocks a sweep, on their own grid and on the
    # benchmark's fine one, so every sweep keeps the per-block loop;
    # r0 = 100 cuts up to 60 on 1001 nodes, and those sweeps take the split.
    # Every sweep a solve runs is one convolution call, and ``sweeps`` counts it
    damped = oracle._damped_conv_integrals
    paths = []

    def recording(kernels, z, b, dt, spectra):
        out = damped(kernels, z, b, dt, spectra)
        paths.append(_split_taken(spectra))
        assert paths[-1] == _takes_split(z, b, dt)
        return out

    monkeypatch.setattr(oracle, "_damped_conv_integrals", recording)
    for fixture in (make_ref1(), make_ref2()):
        for p0 in (fixture.p0, ag.ExponentialDensity(1.65, 1.5), ag.ExponentialDensity(0.3, 0.8)):
            for t_end, dt in ((5.0, 2e-3), (10.0, 1e-3)):
                before = len(paths)
                sol = volterra_solve(from_separable(fixture.params, fixture.feedback, p0), t_end, dt)
                assert len(paths) - before == sol.sweeps
    assert len(paths) > 500 and not any(paths)
    paths.clear()
    fixture = make_ref1(100.0)
    with pytest.raises(ConvergenceError):
        volterra_solve(from_separable(fixture.params, fixture.feedback, fixture.p0), 10.0, 1e-2)
    assert len(paths) == DEFAULT_K_MAX and sum(paths) >= 150


def test_r0_40_converges_through_the_split(monkeypatch):
    # ref1 at r0 = 40 on dt = 0.01 to t = 10 converges where r0 = 100 stalls,
    # and its sweeps cut more blocks than 1001 has bits: the split reaches the
    # fixed point of the per-block loop in the same sweeps
    fixture = make_ref1(40.0)
    calls = []
    split_sums = oracle._split_sums
    monkeypatch.setattr(oracle, "_split_sums", lambda *args: calls.append(1) or split_sums(*args))
    report = cross_validate(fixture.params, fixture.feedback, fixture.p0, 10.0, 1e-2)
    split = len(calls)
    assert split >= 100
    assert report.max_gap <= OracleSettings().gap_threshold
    monkeypatch.setattr(oracle, "_LEAF_RISE", -math.inf)  # no leaf passes: every sweep takes the loop
    per_block = volterra_solve(from_separable(fixture.params, fixture.feedback, fixture.p0), 10.0, 1e-2)
    assert len(calls) == split
    assert (report.oracle.sweeps, report.oracle.iterations) == (per_block.sweeps, per_block.iterations)
    assert _sup_gap(report.oracle, per_block) <= 1e-11


def test_one_transform_pair_per_block(monkeypatch):
    # below the split's rule, a sweep of many blocks transforms each block's
    # inputs once, forward and back, plus one kernel transform per new
    # (c, e, nfft) key; above it, one stacked pair per square size past
    # _MATMUL_MAX, plus those sizes' kernel transforms when (c, n) is new
    calls = {"rfft": 0, "irfft": 0}
    for name in calls:

        def counting(*args, name=name, transform=getattr(np.fft, name), **kwargs):
            calls[name] += 1
            return transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counting)

    def transforms(kernels, z, b, dt, spectra):
        before = dict(calls)
        _damped_conv_integrals(kernels, z, b, dt, spectra)
        return calls["rfft"] - before["rfft"], calls["irfft"] - before["irfft"]

    kernels, z, b, dt = _r0_100_input(1001, 2)
    assert len(_blocks(z, b, dt)) == 8 and not _takes_split(z, b, dt)
    spectra = oracle._Spectra(kernels)
    assert transforms(kernels, z, b, dt, spectra) == (16, 8)
    assert transforms(kernels, z, b, dt, spectra) == (8, 8)  # the same layout again: every key is kept

    kernels, z, b, dt = _r0_100_input(1001, 4)
    size = oracle._LEAF << ((b.size - 1) // oracle._LEAF).bit_length()
    levels = sum(oracle._MATMUL_MAX < h < size for h in (oracle._LEAF << d for d in range(size.bit_length())))
    assert _takes_split(z, b, dt) and levels == 2
    assert transforms(kernels, z, b, dt, spectra) == (2 * levels, levels)
    assert transforms(kernels, z, b, dt, spectra) == (levels, levels)  # (c, n) is kept
    steeper = z + 2.0 * dt * np.arange(b.size)  # the same r, from a tilt 2 higher
    assert _tilt(steeper, dt) != _tilt(z, dt) and _takes_split(steeper, b, dt)
    assert transforms(kernels, steeper, b, dt, spectra) == (2 * levels, levels)
    assert transforms(kernels, z, b, dt, spectra) == (2 * levels, levels)


def test_separable_sweep_scratch_is_safe():
    # one sweep object reuses its scratch on every call: on either route,
    # iterates A, B, then A again give the first result bit for bit, and no
    # returned array shares memory with the scratch or with a kept spectrum,
    # product or table, as volterra_solve holds b and b_next
    for r0, p0, split in ((100.0, None, True), (4.0, ag.ExponentialDensity(1.65, 1.5), False)):
        fixture = make_ref1(r0)
        sweep, b, p = _swept(from_separable(fixture.params, fixture.feedback, p0 or fixture.p0), 1001, 4)
        results = []
        for x in ((b, p), (np.ones(b.size), 1.0 + 0.5 * np.sin(sweep.times)), (b, p)):
            results.append(sweep(*x))
            held = [sweep.spectra.scratch, *(a for kept in sweep.spectra.values() for a in kept)]
            assert not any(np.shares_memory(got, a) for got in results[-1] for a in held)
            assert x[0] is not b or _split_taken(sweep.spectra) == split
        first, _, again = results
        for got, want in zip(again, first):
            np.testing.assert_array_equal(got, want)
        assert not any(np.shares_memory(x, y) for x in first for y in again)


def test_long_horizon_cross_validation(ref1):
    report = cross_validate(ref1.params, ref1.feedback, ref1.p0, 20.0, 5e-3)
    assert report.max_gap <= OracleSettings().gap_threshold
    assert report.oracle.final_update <= 1e-10


# --- the coarse-grid start of the separable path ---------------------------------


def _cold(monkeypatch, model, t_end, dt, **kwargs):
    """The one-grid solve: no coarser grid keeps enough steps."""
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_CHAIN_MIN_STEPS", math.inf)
        return volterra_solve(model, t_end, dt, **kwargs)


def _grid_sweeps(sol):
    """Counted sweeps per grid, coarsest first, from a ``g,k,update`` or one grid's ``k,update`` log."""
    grids = [line.split(",")[0] if line.count(",") == 2 else "1" for line in sol.sweep_log]
    return [grids.count(g) for g in dict.fromkeys(grids)]


def _sup_gap(a, b):
    return max(np.max(np.abs(a.birth_rates - b.birth_rates)), np.max(np.abs(a.populations - b.populations)))


@pytest.mark.parametrize("fixture", [make_ref1, make_ref2], ids=["ref1", "ref2"])
def test_coarse_start_reaches_the_same_fixed_point(fixture, monkeypatch):
    # T = 6 on dt = 2e-3 is 3000 steps: the grids of 750, 1500 and 3000 steps
    fx = fixture()
    model = from_separable(fx.params, fx.feedback, ag.ExponentialDensity(1.65, 1.5))
    t_end, dt, tol = 6.0, 2e-3, 1e-10
    sol = volterra_solve(model, t_end, dt, tol=tol)
    cold = _cold(monkeypatch, model, t_end, dt, tol=tol)
    per_grid = _grid_sweeps(sol)
    assert len(per_grid) == 3 and _grid_sweeps(cold) == [cold.sweeps]
    assert (sol.sweeps, sol.iterations) == (sum(per_grid), max(per_grid))
    assert f"{sol.final_update:.6e}" == sol.sweep_log[-1].split(",")[2]  # the requested grid's last update
    assert sol.final_update <= tol
    # one more sweep of the requested grid moves the result by at most tol
    b_next, p_next = _SeparableSweep(model, sol.times, dt)(sol.birth_rates, sol.populations)
    assert max(np.max(np.abs(b_next - sol.birth_rates)), np.max(np.abs(p_next - sol.populations))) <= tol
    assert _sup_gap(sol, cold) <= 2 * tol
    assert 3 * per_grid[-1] <= cold.sweeps


def test_coarse_start_is_clipped_at_zero(ref1, monkeypatch):
    # the births of P0 = 2000/3 collapse within the first steps, where the
    # cubic between coarse nodes overshoots below zero; unclipped, a sweep
    # would take the log of a negative birth rate
    model = from_separable(ref1.params, ref1.feedback, ag.ExponentialDensity(1e3, 1.5))
    sol = volterra_solve(model, 5.0, 2e-3)
    assert len(_grid_sweeps(sol)) == 3
    assert _sup_gap(sol, _cold(monkeypatch, model, 5.0, 2e-3)) <= 2e-10


@pytest.mark.parametrize("error", [ConvergenceError, ParameterError])
def test_a_coarse_grid_that_raises_leaves_the_cold_solve(ref1, monkeypatch, error):
    # the second of three grids raises: the requested grid is solved on its
    # own, bit for bit as without coarser grids
    model = from_separable(ref1.params, ref1.feedback, ag.ExponentialDensity(1.65, 1.5))
    picard = oracle._picard

    def failing(sweep, b, p, s, e, share, k_max, prefix, log):
        if prefix == "2,":
            raise error("a coarse grid fails")
        return picard(sweep, b, p, s, e, share, k_max, prefix, log)

    cold = _cold(monkeypatch, model, 6.0, 2e-3)
    monkeypatch.setattr(oracle, "_picard", failing)
    sol = volterra_solve(model, 6.0, 2e-3)
    np.testing.assert_array_equal(sol.birth_rates, cold.birth_rates)
    np.testing.assert_array_equal(sol.populations, cold.populations)
    assert sol.sweep_log == cold.sweep_log and sol.sweep_log[0].startswith("1,")
    assert (sol.iterations, sol.sweeps, sol.final_update) == (cold.iterations, cold.sweeps, cold.final_update)


def test_r0_100_stays_on_one_grid_and_stalls(ref1):
    # 2 dt = 0.02 sits on the bound: 0.02 * 100 * betas[0] / 2 = 1
    model = from_separable(ref1.params.with_r0(100.0), ref1.feedback, ref1.p0)
    with pytest.raises(ConvergenceError) as err:
        volterra_solve(model, 10.0, 1e-2)
    assert err.value.iterations == DEFAULT_K_MAX
    assert [line.split(",")[0] for line in err.value.sweep_log] == [str(k) for k in range(1, DEFAULT_K_MAX + 1)]


@pytest.mark.parametrize("t_end, dt", [(5.0, 1e-2), (5.002, 2e-3)], ids=["500-steps", "odd-steps"])
def test_short_or_odd_grids_solve_on_one_grid(ref1, monkeypatch, t_end, dt):
    # 250 coarser steps fall below the floor; 2501 steps have no coarser grid
    model = from_separable(ref1.params, ref1.feedback, ref1.p0)
    sol = volterra_solve(model, t_end, dt)
    assert sol.sweeps == sol.iterations == len(sol.sweep_log)
    assert all(re.fullmatch(r"\d+,[^,]+", line) for line in sol.sweep_log)
    cold = _cold(monkeypatch, model, t_end, dt)
    assert sol.sweep_log == cold.sweep_log
    np.testing.assert_array_equal(sol.birth_rates, cold.birth_rates)


def test_refine_is_exact_on_cubics():
    # the 4-point cubic between nodes, one-sided at both ends, keeps the nodes
    x = np.linspace(-1.0, 2.0, 7)
    rows = np.stack((x**3 - 2 * x, 0.5 * x**2 + 1.0))
    fine = np.linspace(-1.0, 2.0, 13)
    got = oracle._refine(rows)
    np.testing.assert_array_equal(got[:, ::2], rows)
    np.testing.assert_allclose(got, np.stack((fine**3 - 2 * fine, 0.5 * fine**2 + 1.0)), rtol=0, atol=1e-14)


class _DirectGenericSweep:
    """Reference generic sweep: per-diagonal exponents, one target at a time.

    The dense layout the characteristic-major sweep replaced: mortality and
    fertility on the (age x time) grid, survival exponents summed along each
    diagonal, one trapezoid sum per target node, and the initial cohorts on
    their own (sigma x time) grid of ages sigma_i + t_m.
    """

    def __init__(self, model, times, dt):
        self.model = model
        self.times = times
        self.dt = dt
        self.sigma = uniform_grid(model.initial_density.support_end(), dt)
        self.p0_vals = np.asarray(model.initial_density.evaluate(self.sigma), dtype=float)
        self.mass0 = trapezoid(self.p0_vals, dt)

    def seed_population(self):
        return self.mass0

    def __call__(self, b, p):
        model, times, dt = self.model, self.times, self.dt
        n = times.size
        rates = _eval_rates(model.mortality, times[:, None], p[None, :], "mortality")
        expo = np.zeros((n, n))  # expo[j, m]: cohort born at t_{m-j}, aged j dt at t_m
        for d in range(n):
            idx = np.arange(n - d)
            diag = rates[idx, d + idx]
            expo[idx, d + idx] = dt * (np.cumsum(diag) - 0.5 * (diag[0] + diag))
        decay = np.exp(-expo)
        births = _eval_rates(model.fertility, times[:, None], p[None, :], "fertility")
        new_b = np.zeros(n)
        new_p = np.zeros(n)
        for m in range(1, n):
            weights = decay[: m + 1, m] * b[m::-1]
            full = births[: m + 1, m] * weights
            new_b[m] = dt * (np.sum(full) - 0.5 * (full[0] + full[m]))
            new_p[m] = dt * (np.sum(weights) - 0.5 * (weights[0] + weights[m]))

        ages = self.sigma[:, None] + times[None, :]
        mu_shift = _eval_rates(model.mortality, ages, p[None, :], "mortality")
        expo0 = np.zeros(mu_shift.shape)
        expo0[:, 1:] = np.cumsum(0.5 * dt * (mu_shift[:, 1:] + mu_shift[:, :-1]), axis=1)
        alive = np.exp(-expo0) * self.p0_vals[:, None]
        fert_alive = _eval_rates(model.fertility, ages, p[None, :], "fertility") * alive
        if self.sigma.size < 2:
            return new_b, new_p
        g_vals = dt * (alive.sum(axis=0) - 0.5 * (alive[0] + alive[-1]))
        f_vals = dt * (fert_alive.sum(axis=0) - 0.5 * (fert_alive[0] + fert_alive[-1]))
        return new_b + f_vals, new_p + g_vals


def _crowded_model(p0):
    # age and size enter mortality and fertility together, so no separable form
    return GeneralModel(
        mortality=lambda a, p: 0.3 + 0.2 * a * p / (1.0 + p),
        fertility=lambda a, p: 1.2 * a * np.exp(-a) / (1.0 + a * p),
        initial_density=p0,
    )


_TABLE_P0 = ag.TabulatedDensity(ages=(0.0, 1.0, 2.5, 4.0), values=(1.0, 0.8, 0.3, 0.0))

GENERIC_CASES = {
    "non-separable": (_crowded_model(_TABLE_P0), 2.0, 0.02),
    "one-step": (_crowded_model(_TABLE_P0), 0.05, 0.05),
    "one-node-sigma": (_crowded_model(ag.ExponentialDensity(0.0, 1.0)), 1.0, 0.05),
}


def _assert_close_to(got, want):
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _windows(sweep, n):
    """The windows [s, e) of ``window_rows`` nodes that volterra_solve cuts."""
    return [(s, min(s + sweep.window_rows, n)) for s in range(0, n, sweep.window_rows)]


def _windowed_pass(sweep, b, p):
    """One sweep of every window in turn, all from the same iterates."""
    parts = [[x[s:e] for x in sweep(b, p, s, e)] for s, e in _windows(sweep, b.size)]
    return [np.concatenate(values) for values in zip(*parts)]


@pytest.mark.parametrize("case", list(GENERIC_CASES))
def test_generic_sweep_matches_direct_reference(case):
    model, t_end, dt = GENERIC_CASES[case]
    times = np.linspace(0.0, t_end, oracle.grid_steps(t_end, dt) + 1)
    b = 1.0 + 0.5 * np.sin(3.0 * times)
    p = 1.0 + 0.3 * np.cos(2.0 * times)
    want = _DirectGenericSweep(model, times, dt)(b, p)
    # window by window with the carried exponents: with the iterates held
    # fixed, one sweep of every window in turn is one global sweep
    for got_x, want_x in zip(_windowed_pass(_GenericSweep(model, times, dt), b, p), want):
        _assert_close_to(got_x, want_x)

    # the windowed solve lands on a fixed point of the reference sweep
    sol = volterra_solve(model, t_end, dt)
    residual = _DirectGenericSweep(model, sol.times, dt)(sol.birth_rates, sol.populations)
    assert np.max(np.abs(residual[0] - sol.birth_rates)) <= 1e-10
    assert np.max(np.abs(residual[1] - sol.populations)) <= 1e-10


def test_generic_sweep_reads_no_stale_buffer_entry():
    # a pass over every window leaves the exponent buffer, sized for the
    # widest window, past the first window's table (overwritten with NaN to
    # make any read of it show); a sweep of the first window must equal a
    # fresh object's
    model, t_end, dt = GENERIC_CASES["non-separable"]
    times = np.linspace(0.0, t_end, oracle.grid_steps(t_end, dt) + 1)
    b = 1.0 + 0.5 * np.sin(3.0 * times)
    p = 1.0 + 0.3 * np.cos(2.0 * times)
    used = _GenericSweep(model, times, dt)
    _windowed_pass(used, b, p)
    used.expo_flat.fill(np.nan)
    w = used.window_rows
    assert w < times.size and used.expo_flat.size > w * (w - 1 + used.n_sigma)
    for got, want in zip(used(b, p, 0, w), _GenericSweep(model, times, dt)(b, p, 0, w)):
        np.testing.assert_array_equal(got, want)


def _tight_direct_solution(model, t_end, dt):
    """Global Picard over the reference sweep, run to a 1e-13 update."""
    times = np.linspace(0.0, t_end, oracle.grid_steps(t_end, dt) + 1)
    sweep = _DirectGenericSweep(model, times, dt)
    b, p = sweep(np.zeros(times.size), np.full(times.size, sweep.mass0))
    for _ in range(oracle.DEFAULT_K_MAX):
        b_next, p_next = sweep(b, p)
        update = max(np.max(np.abs(b_next - b)), np.max(np.abs(p_next - p)))
        b, p = b_next, p_next
        if update <= 1e-13:
            return b, p
    raise AssertionError(f"reference Picard stalled at update {update!r}")


def _generic_twin(fixture):
    # the separable model's evaluators without the separable hint
    model = from_separable(fixture.params, fixture.feedback, fixture.p0)
    return GeneralModel(model.mortality, model.fertility, model.initial_density)


def test_separable_model_is_one_object(ref1):
    # its rates come from the ingredients the fast path reads, and no other
    # model can carry a separable hint beside its own callables
    model = from_separable(ref1.params, ref1.feedback, ref1.p0)
    twin = _generic_twin(ref1)
    assert (model.separable, twin.separable) == (True, False)
    a, p = np.array([[0.0, 1.5]]), np.array([[0.5], [2.0]])
    np.testing.assert_array_equal(model.mortality(a, p), 0.5 + ref1.feedback.psi(p))
    np.testing.assert_array_equal(model.fertility(a, p), 4.0 * ref1.feedback.phi(p) * np.exp(-0.5 * a))
    for target in (model, twin):
        with pytest.raises(dataclasses.FrozenInstanceError):
            target.separable = not target.separable
    with pytest.raises(TypeError):
        GeneralModel(model.mortality, model.fertility, ref1.p0, separable=True)


@pytest.mark.parametrize("case", [*GENERIC_CASES, "ref1", "ref2"])
def test_windowed_generic_matches_tight_reference(case, request):
    if case in GENERIC_CASES:
        model, t_end, dt = GENERIC_CASES[case]
    else:
        # 13 windows: a stop rule that leaves each window at tol errs by 4-5e-11
        model, t_end, dt = _generic_twin(request.getfixturevalue(case)), 4.0, 0.02
    sol = volterra_solve(model, t_end, dt)
    for got, want in zip((sol.birth_rates, sol.populations), _tight_direct_solution(model, t_end, dt)):
        assert np.all(np.abs(got - want) <= 2e-11 * np.maximum(1.0, np.abs(want)))


def test_generic_windows_evaluate_only_the_ages_they_read():
    # a window [s, e) reads its rows and row s - 1, and only the ages of the
    # cohorts born by e - 1 and of the initial cohorts; each evaluator is
    # called once per sweep of the window, and every sweep is counted
    calls = {"mortality": [], "fertility": []}

    def recording(name, fn):
        def rate(a, p):
            calls[name].append((np.shape(a), np.shape(p)))
            return fn(a, p)
        return rate

    base = _crowded_model(_TABLE_P0)
    model = GeneralModel(
        recording("mortality", base.mortality), recording("fertility", base.fertility), _TABLE_P0
    )
    t_end, dt = 2.0, 0.02
    sol = volterra_solve(model, t_end, dt)
    times = np.linspace(0.0, t_end, oracle.grid_steps(t_end, dt) + 1)
    sweep = _GenericSweep(model, times, dt)
    windows = _windows(sweep, times.size)
    assert sol.windows == len(windows) > 1
    want = [((1, e - 1 + sweep.n_sigma), (e - max(s - 1, 0), 1)) for s, e in windows]
    for shapes in calls.values():
        runs = [(shape, len(list(group))) for shape, group in itertools.groupby(shapes)]
        assert [shape for shape, _ in runs] == want
        assert sum(count for _, count in runs) == sol.sweeps
        assert max(count for _, count in runs) == sol.iterations


def test_windowed_log_and_stall_name_the_window():
    sol = volterra_solve(_crowded_model(_TABLE_P0), 2.0, 0.02)
    lines = [line.split(",") for line in sol.sweep_log]
    assert len(lines) == sol.sweeps
    assert [int(w) for w, k, _ in lines if k == "1"] == list(range(1, sol.windows + 1))
    last = {int(w): float(update) for w, _, update in lines}  # each window's last update
    assert max(last.values()) == pytest.approx(sol.final_update, rel=1e-6)
    assert sol.final_update <= 1e-10

    # births start once the initial cohorts pass age 2.4, in the window
    # from t = 1.28; every window before it is exact after its second sweep
    model = GeneralModel(
        mortality=lambda a, p: 0.5,
        fertility=lambda a, p: 40.0 * np.maximum(a - 2.4, 0.0) / (1.0 + p),
        initial_density=ag.TabulatedDensity(ages=(0.0, 1.0), values=(1.0, 1.0)),
    )
    with pytest.raises(ConvergenceError, match=r"window from t=1\.28$") as err:
        volterra_solve(model, 3.0, 0.01, k_max=2)
    # two sweeps in each of the 16-node windows up to and including the stall
    lines = [line.split(",")[:2] for line in err.value.sweep_log]
    assert lines == [[str(w), str(k)] for w in range(1, 10) for k in (1, 2)]


def test_broadcast_rates_need_one_call_per_sweep():
    # a size-only mortality and an age-only fertility are broadcast to the
    # grid, not evaluated entry by entry, and give the padded twin's numbers
    calls = []

    def mortality(a, p):
        calls.append(np.shape(p))
        return 0.5 + 0.1 * p

    p0 = ag.ExponentialDensity(1.0, 1.5)
    model = GeneralModel(mortality, lambda a, p: 0.6 * np.exp(-a), p0)
    twin = GeneralModel(
        lambda a, p: 0.5 + 0.1 * p + 0 * a, lambda a, p: 0.6 * np.exp(-a) + 0 * p, p0
    )
    sol = volterra_solve(model, 2.0, 0.02)
    ref = volterra_solve(twin, 2.0, 0.02)
    assert len(calls) == sol.sweeps
    assert sol.iterations == ref.iterations
    np.testing.assert_array_equal(sol.birth_rates, ref.birth_rates)
    np.testing.assert_array_equal(sol.populations, ref.populations)


def test_broadcast_rates_are_validated():
    times = np.linspace(0.0, 1.0, 11)
    model = GeneralModel(lambda a, p: 1.0 - p, lambda a, p: 0.0 * a, ag.ExponentialDensity(1.0, 1.0))
    with pytest.raises(ParameterError, match="mortality"):
        _GenericSweep(model, times, 0.1)(np.ones(11), np.full(11, 2.0), 0, 11)
    # a result that does not broadcast to the (sizes x ages) table
    model = GeneralModel(lambda a, p: 0.5, lambda a, p: np.ones(3), ag.ExponentialDensity(1.0, 1.0))
    with pytest.raises(ParameterError, match=r"^fertility evaluator must take arrays and return a result"):
        _GenericSweep(model, times, 0.1)(np.ones(11), np.ones(11), 0, 11)


@pytest.mark.parametrize("scalar_only", ["mortality", "fertility"])
def test_scalar_only_evaluator_is_refused(scalar_only):
    # math.exp rejects arrays, and the oracle calls each evaluator once on arrays
    rates = {
        "mortality": lambda a, p: 0.3 + 0.2 * np.exp(-a * p),
        "fertility": lambda a, p: 1.2 * a * np.exp(-a) / (1.0 + p),
    }
    rates[scalar_only] = {
        "mortality": lambda a, p: 0.3 + 0.2 * math.exp(-a * p),
        "fertility": lambda a, p: 1.2 * a * math.exp(-a) / (1.0 + p),
    }[scalar_only]
    p0 = ag.TabulatedDensity(ages=(0.0, 0.4, 1.0), values=(1.0, 0.6, 0.0))
    with pytest.raises(ParameterError, match=f"^{scalar_only} evaluator must take arrays"):
        volterra_solve(GeneralModel(**rates, initial_density=p0), 0.5, 0.1)


def test_generic_and_separable_paths_agree_on_random_models():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    positive = st.floats(min_value=0.2, max_value=3.0)

    @hypothesis.given(
        n=st.integers(min_value=1, max_value=2),
        raw_betas=st.lists(positive, min_size=2, max_size=2),
        rho=positive,
        mu0=positive,
        r0=st.floats(min_value=0.5, max_value=8.0),
        k=positive,
        hill_m=st.floats(min_value=1.0, max_value=3.0),
        c=positive,
        coefficient=positive,
        decay=st.floats(min_value=0.5, max_value=3.0),
    )
    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True, database=None)
    def check(n, raw_betas, rho, mu0, r0, k, hill_m, c, coefficient, decay):
        params = ag.ModelParams(
            n=n, betas=ag.normalize_betas(raw_betas[:n], rho, mu0), rho=rho, mu0=mu0, r0=r0,
            normalized=True,
        )
        feedback = ag.FeedbackSpec(
            phi_family=ag.make_phi("hill", k=k, m=hill_m),
            psi_family=ag.make_psi("linear", c=c),
        )
        fast_model = from_separable(params, feedback, ag.ExponentialDensity(coefficient, decay))
        slow_model = GeneralModel(
            mortality=fast_model.mortality,
            fertility=fast_model.fertility,
            initial_density=fast_model.initial_density,
        )
        fast = volterra_solve(fast_model, 1.0, 0.05)
        slow = volterra_solve(slow_model, 1.0, 0.05)
        assert np.max(np.abs(fast.birth_rates - slow.birth_rates)) <= 1e-9
        assert np.max(np.abs(fast.populations - slow.populations)) <= 1e-9

    check()


# --- the predicted start of each window --------------------------------------------


@pytest.mark.parametrize("rows", [16, 75])
def test_window_predictor_reproduces_polynomials(rows):
    # exact up to round-off on every polynomial of degree <= 6 through the window before;
    # the row of the far node sums to about 3e4 in absolute value, so on a whole window
    # the samples' own round-off reaches about 7e-12 of their size there
    predictor = oracle._window_predictor(rows)
    assert predictor.shape == (rows, rows) and not predictor.flags.writeable
    t = 1.0 + 0.01 * np.arange(2 * rows)
    rng = np.random.default_rng(7)
    for degree in range(oracle._PREDICTOR_DEGREE + 1):
        for _ in range(5):
            values = np.polynomial.polynomial.polyval(t, rng.normal(size=degree + 1))
            size = np.max(np.abs(values))
            ahead = predictor @ values[:rows]
            assert np.max(np.abs(ahead - values[rows:])) <= 1e-11 * size
            # a short last window of 5 nodes reads the first rows alone
            assert np.max(np.abs(predictor[:5] @ values[:rows] - values[rows : rows + 5])) <= 1e-12 * size


def test_predicted_start_is_clipped_at_zero(monkeypatch):
    # births from the initial cohorts aged 0.9 to 1.2 switch off at a jump,
    # which the polynomial through the window before overshoots below zero
    model = GeneralModel(
        mortality=lambda a, p: 0.5,
        fertility=lambda a, p: 4.0 * ((a >= 0.9) & (a <= 1.2)),
        initial_density=ag.TabulatedDensity(ages=(0.0, 1.0), values=(1.0, 1.0)),
    )
    starts, call = {}, _GenericSweep.__call__

    def seeing(self, b, p, s, e):
        if s and s not in starts:  # the first sweep of a window sees its start
            rows = self.window_rows
            ahead = oracle._window_predictor(rows)[: e - s]
            starts[s] = np.stack((ahead @ b[s - rows : s], ahead @ p[s - rows : s])), np.stack((b[s:e], p[s:e]))
        return call(self, b, p, s, e)

    monkeypatch.setattr(_GenericSweep, "__call__", seeing)
    sol = volterra_solve(model, 3.0, 0.01)
    assert len(starts) == sol.windows - 1
    for raw, start in starts.values():
        np.testing.assert_array_equal(start, np.maximum(raw, 0.0))
    assert any(np.min(raw) < 0.0 for raw, _ in starts.values())


def test_one_window_solves_never_build_the_predictor(ref1, monkeypatch):
    def refused(rows):
        raise AssertionError("a one-window solve built the window predictor")

    monkeypatch.setattr(oracle, "_window_predictor", refused)
    model = from_separable(ref1.params, ref1.feedback, ref1.p0)
    for t_end, dt in ((5.0, 1e-2), (4.0, 1e-3)):  # one grid, and a chain of four
        assert volterra_solve(model, t_end, dt).windows == 1


def test_predicted_windows_keep_the_sweep_budget(ref1):
    # the generic twin of ref1 on the benchmark grid: 233 sweeps from a copy of
    # the last final node, 65 from the predicted start
    sol = volterra_solve(_generic_twin(ref1), 5.0, 1e-2)
    ref = volterra_solve(from_separable(ref1.params, ref1.feedback, ref1.p0), 5.0, 1e-2)
    assert sol.windows == 32 and sol.sweeps <= 100
    assert _sup_gap(sol, ref) <= 1e-10


# --- convergence control -----------------------------------------------------------


def test_convergence_error_carries_diagnostics(ref1):
    model = from_separable(ref1.params, ref1.feedback, ref1.p0)
    for k_max in (1, 3):
        with pytest.raises(ConvergenceError) as err:
            volterra_solve(model, 2.0, 0.01, k_max=k_max)
        assert err.value.iterations == k_max
        assert err.value.update_norm > 1e-10
        # the log holds every sweep up to the stall, the last with its update
        assert [line.split(",")[0] for line in err.value.sweep_log] == [str(k + 1) for k in range(k_max)]
        assert float(err.value.sweep_log[-1].split(",")[1]) == pytest.approx(err.value.update_norm, rel=1e-6)


def test_iteration_log_lines(ref1):
    model = from_separable(ref1.params, ref1.feedback, ref1.p0)
    sol = volterra_solve(model, 2.0, 0.01)
    lines = sol.sweep_log
    assert len(lines) == sol.iterations
    for k, line in enumerate(lines, start=1):
        m = re.fullmatch(r"(\d+),(\d\.\d{6}e[+-]\d{2,})", line)
        assert m is not None, line
        assert int(m.group(1)) == k
    assert float(lines[-1].split(",")[1]) <= 1e-10


# --- cross validation ---------------------------------------------------------------


def test_cross_validate_linear_mode():
    fx = make_linear()
    coarse = cross_validate(fx.params, fx.feedback, fx.p0, 2.0, 0.002)
    assert coarse.max_gap <= 1e-3
    fine = cross_validate(fx.params, fx.feedback, fx.p0, 2.0, 0.001)
    order = math.log2(coarse.max_gap / fine.max_gap)
    assert order >= 1.8


def test_cross_validate_ref1_perturbed(ref1):
    p0 = ag.ExponentialDensity(coefficient=1.65, decay=1.5)
    report = cross_validate(ref1.params, ref1.feedback, p0, 6.0, 0.002)
    assert report.p_gap <= 1e-4
    assert report.b_gap <= 1e-4
    assert report.oracle.times.shape == report.oracle.populations.shape
    assert report.ode_populations.shape == report.oracle.times.shape
    assert report.max_gap == max(report.p_gap, report.b_gap)
