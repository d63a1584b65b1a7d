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
    GeneralModel,
    _damped_conv_integrals,
    _eval_rates,
    _GenericSweep,
    _SeparableSweep,
    _sigma_grid,
    cross_validate,
    from_separable,
    volterra_solve,
)
from agestruct.quadrature import trapezoid

from conftest import make_linear


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
    assert report.times is report.oracle.times
    assert np.array_equal(traj.times, report.times)
    assert np.array_equal(report.ode_populations, traj.state_at(report.times)[:, 0])


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


def test_survival_exponent_guard():
    params = ag.ModelParams(n=1, betas=(1.0,), rho=0.5, mu0=400.0, r0=4.0)
    feedback = ag.FeedbackSpec(
        phi_family=ag.make_phi("hill", k=1.0, m=1.0),
        psi_family=ag.make_psi("linear", c=1.0),
    )
    model = from_separable(params, feedback, ag.ExponentialDensity(1.5, 1.5))
    with pytest.raises(ParameterError, match="overflow"):
        volterra_solve(model, 2.0, 0.5)


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


def test_fast_and_generic_paths_agree(ref2):
    # the structured convolution path (one window, the whole grid) and the
    # dense windowed path must be two encodings of the same discrete scheme,
    # not merely close
    p0 = ag.ExponentialDensity(coefficient=1.2, decay=1.1)
    fast_model = from_separable(ref2.params, ref2.feedback, p0)
    slow_model = GeneralModel(
        mortality=fast_model.mortality,
        fertility=fast_model.fertility,
        initial_density=p0,
    )
    fast = volterra_solve(fast_model, 2.0, 0.01)
    slow = volterra_solve(slow_model, 2.0, 0.01)
    assert (fast.windows, fast.sweeps) == (1, fast.iterations)
    assert slow.windows > 1
    np.testing.assert_allclose(fast.birth_rates, slow.birth_rates, atol=1e-10)
    np.testing.assert_allclose(fast.populations, slow.populations, atol=1e-10)


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


def test_damped_convolution_matches_direct_sum(ref1):
    # the survival exponent climbs to just under the overflow guard, where a
    # single FFT of exp(+z) * b would lose everything below exp(590) * eps
    n, dt = 401, 0.01
    times = np.linspace(0.0, (n - 1) * dt, n)
    kernels = _separable_kernels(ref1, times, dt)
    z = 590.0 * (times / times[-1]) ** 1.5
    b = 1.0 + 0.5 * np.sin(3.0 * times)
    for kernel, got in zip(kernels, _damped_conv_integrals(kernels, z, b, dt, {})):
        want = _direct_damped_integrals(kernel, z, b, dt)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


def test_damped_convolution_follows_growing_births(ref1):
    # no survival exponent, but births growing like exp(5 t): each output must
    # stay accurate relative to the births so far, not to the last, largest
    # ones (a grid-wide FFT errs by about exp(20) * eps everywhere)
    n, dt = 401, 0.01
    times = np.linspace(0.0, (n - 1) * dt, n)
    kernels = _separable_kernels(ref1, times, dt)
    z = np.zeros(n)
    b = np.exp(5.0 * times)
    for kernel, got in zip(kernels, _damped_conv_integrals(kernels, z, b, dt, {})):
        want = _direct_damped_integrals(kernel, z, b, dt)
        assert np.all(np.abs(got - want) <= 1e-12 * b)


def _block_keys(z, b):
    """The (e, nfft) of each block of ``_damped_conv_integrals``, by its stated rule."""
    with np.errstate(divide="ignore"):
        bins = np.floor(np.maximum.accumulate(z + np.log(b)) / oracle._BLOCK_SPAN)
    starts = [0, *(np.flatnonzero(bins[1:] != bins[:-1]) + 1).tolist()]
    ends = [*starts[1:], b.size]
    return {(e, 1 << (2 * e - 2 - s).bit_length()) for s, e in zip(starts, ends)}


def test_spectrum_reuse_keeps_every_bit(ref1, monkeypatch):
    # r0 = 20 from a bumped start moves the block ends between sweeps (up to
    # 14 blocks), so sweeps both reuse kernel spectra and transform new ones;
    # every bit must match a solve that transforms each spectrum afresh
    p0 = ag.ExponentialDensity(coefficient=1.65, decay=1.5)
    model = from_separable(ref1.params.with_r0(20.0), ref1.feedback, p0)
    damped = oracle._damped_conv_integrals
    layouts, reused = [], 0

    def keeping(kernels, z, b, dt, spectra):
        nonlocal reused
        keys = _block_keys(z, b)
        reused += len(spectra.keys() & keys)
        out = damped(kernels, z, b, dt, spectra)
        assert spectra.keys() == keys  # exactly this sweep's spectra
        layouts.append(frozenset(keys))
        return out

    monkeypatch.setattr(oracle, "_damped_conv_integrals", keeping)
    kept = volterra_solve(model, 10.0, 0.002)
    monkeypatch.setattr(oracle, "_damped_conv_integrals", lambda k, z, b, dt, spectra: damped(k, z, b, dt, {}))
    fresh = volterra_solve(model, 10.0, 0.002)
    assert max(map(len, layouts)) == 14 and len(set(layouts)) > 1 and reused > 0
    np.testing.assert_array_equal(kept.birth_rates, fresh.birth_rates)
    np.testing.assert_array_equal(kept.populations, fresh.populations)
    assert kept.sweep_log == fresh.sweep_log


def test_long_horizon_cross_validation(ref1):
    report = cross_validate(ref1.params, ref1.feedback, ref1.p0, 20.0, 5e-3)
    assert report.oracle.iterations == 47
    assert report.max_gap <= OracleSettings().gap_threshold


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
        self.sigma = _sigma_grid(model.initial_density, dt)
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


def _scalar_only_model():
    # math.exp rejects arrays, so both sweeps evaluate entry by entry
    return GeneralModel(
        mortality=lambda a, p: 0.3 + 0.2 * math.exp(-a * p),
        fertility=lambda a, p: 1.2 * a * math.exp(-a) / (1.0 + p),
        initial_density=ag.TabulatedDensity(ages=(0.0, 0.4, 1.0), values=(1.0, 0.6, 0.0)),
    )


_TABLE_P0 = ag.TabulatedDensity(ages=(0.0, 1.0, 2.5, 4.0), values=(1.0, 0.8, 0.3, 0.0))

GENERIC_CASES = {
    "non-separable": (_crowded_model(_TABLE_P0), 2.0, 0.02),
    "scalar-only": (_scalar_only_model(), 0.5, 0.1),
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
    # the whole grid at once, and window by window with the carried
    # exponents: with the iterates held fixed both are one global sweep
    for got in (_GenericSweep(model, times, dt)(b, p), _windowed_pass(_GenericSweep(model, times, dt), b, p)):
        for got_x, want_x in zip(got, want):
            _assert_close_to(got_x, want_x)

    # the windowed solve lands on a fixed point of the reference sweep
    sol = volterra_solve(model, t_end, dt)
    residual = _DirectGenericSweep(model, sol.times, dt)(sol.birth_rates, sol.populations)
    assert np.max(np.abs(residual[0] - sol.birth_rates)) <= 1e-10
    assert np.max(np.abs(residual[1] - sol.populations)) <= 1e-10


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
    # called once per sweep of the window, seeding sweep included
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
        assert sum(count for _, count in runs) == sol.sweeps + sol.windows
        assert max(count for _, count in runs) == sol.iterations + 1


def test_windowed_log_and_stall_name_the_window():
    sol = volterra_solve(_crowded_model(_TABLE_P0), 2.0, 0.02)
    lines = [line.split(",") for line in sol.sweep_log]
    assert len(lines) == sol.sweeps
    assert [int(w) for w, k, _ in lines if k == "1"] == list(range(1, sol.windows + 1))
    last = {int(w): float(update) for w, _, update in lines}  # each window's last update
    assert max(last.values()) == pytest.approx(sol.final_update, rel=1e-6)
    assert sol.final_update <= 1e-10

    # births start once the initial cohorts pass age 2.4, in the window
    # from t = 1.28; every window before it is exact after its seeding sweep
    model = GeneralModel(
        mortality=lambda a, p: 0.5,
        fertility=lambda a, p: 40.0 * np.maximum(a - 2.4, 0.0) / (1.0 + p),
        initial_density=ag.TabulatedDensity(ages=(0.0, 1.0), values=(1.0, 1.0)),
    )
    with pytest.raises(ConvergenceError, match=r"window from t=1\.28$") as err:
        volterra_solve(model, 3.0, 0.01, k_max=1)
    # one sweep in each of the 16-node windows up to and including the stall
    assert [line.split(",")[:2] for line in err.value.sweep_log] == [[str(w), "1"] for w in range(1, 10)]


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
    assert len(calls) == sol.sweeps + sol.windows
    assert sol.iterations == ref.iterations
    np.testing.assert_array_equal(sol.birth_rates, ref.birth_rates)
    np.testing.assert_array_equal(sol.populations, ref.populations)


def test_broadcast_rates_are_validated():
    times = np.linspace(0.0, 1.0, 11)
    model = GeneralModel(lambda a, p: 1.0 - p, lambda a, p: 0.0 * a, ag.ExponentialDensity(1.0, 1.0))
    with pytest.raises(ParameterError, match="mortality"):
        _GenericSweep(model, times, 0.1)(np.ones(11), np.full(11, 2.0))


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
    assert report.times.shape == report.oracle.populations.shape
    assert report.ode_populations.shape == report.times.shape
    assert report.max_gap == max(report.p_gap, report.b_gap)
