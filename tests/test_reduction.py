import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import agestruct as ag
from agestruct import reduction
from agestruct.errors import NegativityError, ParameterError, TrajectoryRangeError
from agestruct.reduction import _clamp_undershoot


# --- states at the entry points ----------------------------------------------

#: each public call that takes a state [p, p_1, ..., p_n], as a function of the state
STATE_ENTRY_POINTS = {
    "rhs": lambda y, fx: ag.rhs(y, fx.params, fx.feedback),
    "birth_rate": lambda y, fx: ag.birth_rate(y, fx.params, fx.feedback),
    "jacobian_at": lambda y, fx: ag.jacobian_at(y, fx.params, fx.feedback),
    "integrate": lambda y, fx: ag.integrate(y, fx.params, fx.feedback, t_end=1.0, n_samples=11).knot_states,
}


@pytest.mark.parametrize("entry", sorted(STATE_ENTRY_POINTS))
def test_state_entry_points_take_arrays_under_the_undershoot_policy(ref2, entry):
    call = STATE_ENTRY_POINTS[entry]
    start = ag.density_moments(ag.ExponentialDensity(1.65, 1.5), ref2.params.rho, ref2.params.n)
    traj = ag.integrate(start, ref2.params, ref2.feedback, t_end=2.0, n_samples=5)
    row = traj.states[3]
    want = call(row, ref2)
    # a trajectory row as it is, a dense-output read, a list and a tuple
    for state in (traj.state_at(traj.times[3]), row.tolist(), tuple(row.tolist())):
        np.testing.assert_array_equal(call(state, ref2), want)
    # an entry in [-1e-9, 0) reads as 0, and the caller's array is left as it was
    tiny = np.array([-5e-10, -1e-12, 0.5])
    np.testing.assert_array_equal(call(tiny, ref2), call([0.0, 0.0, 0.5], ref2))
    assert tiny.tolist() == [-5e-10, -1e-12, 0.5]
    for bad, message in (
        ([-1e-6, 0.0, 0.5], "state entry -1e-06 fell below the -1e-9 negativity slack"),
        ([1.0, -2e-9, 0.5], "state entry -2e-09 fell below the -1e-9 negativity slack"),
        ([1.0, math.nan, 0.5], "state entry nan is not finite"),
        ([1.0, 0.75], "state carries 1 moments, expected 2"),
        (traj.states, "state carries 14 moments in shape (5, 3), expected 2"),
    ):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            call(bad, ref2)


def test_rhs_returns_negative_derivatives_unclamped(ref2):
    deriv = ag.rhs([3.0, 0.1, 0.1], ref2.params, ref2.feedback)
    assert isinstance(deriv, np.ndarray) and deriv.shape == (3,)
    assert deriv.min() < -1.0  # crowding drains p far faster than births refill it


# --- right-hand side ---------------------------------------------------------


def test_rhs_vanishes_at_equilibrium(ref1, ref2):
    for fx in (ref1, ref2):
        eq = ag.equilibrium(fx.params, fx.feedback)
        deriv = ag.rhs((eq.p_star, *eq.moments_star), fx.params, fx.feedback)
        assert np.max(np.abs(deriv)) <= 1e-13


def test_rhs_is_the_integrators_derivative(ref1, ref2):
    # the derivative the stepper kept at each knot is the public rhs there, bit for bit
    for fx in (ref1, ref2):
        start = ag.density_moments(ag.ExponentialDensity(1.65, 1.5), fx.params.rho, fx.params.n)
        traj = ag.integrate(start, fx.params, fx.feedback, t_end=20.0)
        assert traj.clamp_count == 0  # so every knot state is the one f was called on
        for state, deriv in zip(traj.knot_states[:, :-1], traj.knot_derivs[:, :-1]):
            np.testing.assert_array_equal(ag.rhs(state, fx.params, fx.feedback), deriv)


def test_birth_rate_closed_form(ref2):
    state = [1.0, 0.75, 0.375]
    # r0 * phi(1) * (b1*m1 + b2*m2) = (16/3)(1/2)(0.5*0.75 + 0.5*0.375)
    assert math.isclose(ag.birth_rate(state, ref2.params, ref2.feedback), 1.5, rel_tol=1e-14)


def test_rhs_moment_count_mismatch(ref2):
    with pytest.raises(ParameterError):
        ag.rhs([1.0, 0.75], ref2.params, ref2.feedback)


# --- integration -------------------------------------------------------------


def test_stationary_start_stays_put(ref1):
    start = ag.density_moments(ref1.p0, ref1.params.rho, ref1.params.n)
    traj = ag.integrate(start, ref1.params, ref1.feedback, t_end=60.0)
    assert np.max(np.abs(traj.states[:, 0] - 1.0)) <= 1e-9
    assert np.max(np.abs(traj.birth_rates - 1.5)) <= 1e-9
    # with p == 1 the feedback mortality integral is just t
    assert math.isclose(traj.psi_integral_at(37.5), 37.5, rel_tol=1e-9)


def test_linear_mode_exponential_growth(linear_fixture):
    fx = linear_fixture
    start = ag.density_moments(fx.p0, fx.params.rho, fx.params.n)
    exact = 0.75 * math.e  # growth rate r0*b0 - rho - mu0 = 1
    for kwargs in ({"method": "rk45", "rtol": 1e-8, "atol": 1e-10}, {"method": "rk4", "h": 1e-3}):
        traj = ag.integrate(start, fx.params, fx.feedback, t_end=1.0, **kwargs)
        rel = abs(traj.states[-1, 1] - exact) / exact
        assert rel <= 1e-8
        assert np.all(traj.psi_integral == 0.0)  # feedback off


def test_rk4_is_fourth_order(linear_fixture):
    fx = linear_fixture
    start = ag.density_moments(fx.p0, fx.params.rho, fx.params.n)
    exact = 0.75 * math.e
    errs = []
    for h in (0.05, 0.025):
        traj = ag.integrate(start, fx.params, fx.feedback, t_end=1.0, method="rk4", h=h)
        errs.append(abs(traj.states[-1, 1] - exact))
    assert 12.0 <= errs[0] / errs[1] <= 20.0


@pytest.mark.parametrize("t_end", [1e-13, 1e-300])
@pytest.mark.parametrize("method", ["rk45", "rk4"])
def test_tiny_horizons_end_on_t_end(linear_fixture, method, t_end):
    # the landing rule, the read edge and the step floor scale with t_end
    fx = linear_fixture
    start = ag.density_moments(fx.p0, fx.params.rho, fx.params.n)
    kwargs = {"method": "rk4", "h": t_end / 50} if method == "rk4" else {}
    traj = ag.integrate(start, fx.params, fx.feedback, t_end, **kwargs)
    assert traj.t_end == t_end and traj.knot_times.size > 2
    np.testing.assert_allclose(traj.states[:, 1], 0.75 * np.exp(traj.times), rtol=1e-14)
    with pytest.raises(TrajectoryRangeError):
        traj.state_at(2 * t_end)


def test_a_step_that_cannot_move_t_raises():
    # at t_end = 5e-324 the first rk45 step, t_end / 100, is 0; a subprocess
    # with a timeout turns a loop that never moves t into a failure
    code = (
        "import agestruct as ag\n"
        "from agestruct.errors import StepSizeError\n"
        "params = ag.ModelParams(n=1, betas=(1.0,), rho=0.5, mu0=0.5, r0=2.0, normalized=True)\n"
        "start = ag.density_moments(ag.ExponentialDensity(1.5, 1.5), 0.5, 1)\n"
        "try:\n"
        "    ag.integrate(start, params, ag.FeedbackSpec.linear(), 5e-324)\n"
        "except StepSizeError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(ag.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "step size underflow at t=0.0; problem too stiff\n", "")


def test_rk45_retries_a_rejected_step_from_the_accepted_point(ref1):
    # at r0 = 20 the step control rejects steps after accepted ones; each
    # retry must start from f(t, y), not from the rejected trial's last stage
    params = ref1.params.with_r0(20.0)
    start = ag.density_moments(ref1.p0, params.rho, params.n)
    traj = ag.integrate(start, params, ref1.feedback, t_end=50.0)
    fine = ag.integrate(start, params, ref1.feedback, t_end=50.0, method="rk4", h=5e-3)
    fine_states = fine.state_at(traj.knot_times)
    rel = np.abs(traj.knot_states[:, :-1] - fine_states) / np.abs(fine_states)
    assert np.max(rel) <= 5e-8


def test_rhs_calls_per_step(ref1, monkeypatch):
    # one call at t = 0, then 4 per rk4 step and 6 per rk45 attempt: the
    # last stage of an accepted step is the next step's first (FSAL); psi
    # runs once per call, since Z' = psi(p) comes out of the same call
    calls = []
    psi_calls = []
    rhs_array = reduction._rhs_array

    def counted(*args):
        calls.append(args)
        return rhs_array(*args)

    class CountedPsi(type(ref1.feedback.psi_family)):
        def value(self, x):
            psi_calls.append(x)
            return super().value(x)

    counted_psi = CountedPsi(*dataclasses.astuple(ref1.feedback.psi_family))

    monkeypatch.setattr(reduction, "_rhs_array", counted)
    start = ag.density_moments(ref1.p0, ref1.params.rho, ref1.params.n)
    # the stationary start rejects no step
    for kwargs, per_step in (({"method": "rk4", "h": 0.05}, 4), ({}, 6)):
        calls.clear()
        psi_calls.clear()
        traj = ag.integrate(start, ref1.params, _with_psi(ref1, counted_psi), t_end=20.0, **kwargs)
        assert len(calls) == 1 + per_step * (traj.knot_times.size - 1)
        assert len(psi_calls) == len(calls)
    calls.clear()
    traj = ag.integrate(start, ref1.params.with_r0(20.0), ref1.feedback, t_end=50.0)
    attempts, rest = divmod(len(calls) - 1, 6)
    assert rest == 0 and attempts > traj.knot_times.size - 1  # some steps were rejected


def test_trajectory_sampling_and_dense_output(ref1):
    start = [1.2, 0.8]
    traj = ag.integrate(start, ref1.params, ref1.feedback, t_end=5.0, n_samples=301)
    assert traj.times.size == 301
    assert traj.times[0] == 0.0 and traj.times[-1] == 5.0
    assert np.all(np.diff(traj.times) > 0)
    # dense output agrees with the recorded samples at the sample times
    mid = traj.times[137]
    np.testing.assert_allclose(traj.state_at(mid), traj.states[137], rtol=1e-12, atol=1e-14)
    # between samples it should track a tighter reference solution
    t_probe = 0.5 * (traj.times[40] + traj.times[41])
    fine = ag.integrate(start, ref1.params, ref1.feedback, t_end=5.0, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(traj.state_at(t_probe), fine.state_at(t_probe), rtol=1e-6)


def test_trajectory_range_checks(ref1):
    start = [1.0, 0.75]
    traj = ag.integrate(start, ref1.params, ref1.feedback, t_end=2.0)
    with pytest.raises(TrajectoryRangeError):
        traj.state_at(2.5)
    with pytest.raises(TrajectoryRangeError):
        traj.psi_integral_at(-0.5)
    # NaN lies in no range, alone or in an array, for every readout
    for read in (traj.state_at, traj.psi_integral_at, traj.birth_rate_at):
        for t in (math.nan, [0.5, math.nan]):
            with pytest.raises(TrajectoryRangeError, match=r"^query time outside \[0, 2\.0\]$"):
                read(t)
    assert issubclass(TrajectoryRangeError, ParameterError)


def test_readouts_of_no_times(ref1):
    traj = ag.integrate([1.0, 0.75], ref1.params, ref1.feedback, t_end=2.0)
    assert traj.state_at([]).shape == (0, 2)
    assert traj.psi_integral_at([]).shape == traj.birth_rate_at([]).shape == (0,)


def test_integrate_validates_arguments(ref1):
    start = [1.0, 0.75]
    with pytest.raises(ParameterError):
        ag.integrate(start, ref1.params, ref1.feedback, t_end=-1.0)
    with pytest.raises(ParameterError):
        ag.integrate(start, ref1.params, ref1.feedback, t_end=1.0, method="euler")
    with pytest.raises(ParameterError):
        ag.integrate(start, ref1.params, ref1.feedback, t_end=1.0, method="rk4")  # h missing
    with pytest.raises(ParameterError):
        ag.integrate(start, ref1.params, ref1.feedback, t_end=1.0, n_samples=1)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"max_step": 0.0}, "max_step must be positive and finite"),
        ({"max_step": -1.0}, "max_step must be positive and finite"),
        # refused before the first step: an infinite horizon never ends, and
        # with zero tolerances every step fails down to a StepSizeError
        ({"t_end": math.inf}, "t_end must be positive and finite"),
        ({"rtol": -1.0}, "rtol must be positive and atol nonnegative"),
        ({"rtol": 0.0, "atol": 0.0}, "rtol must be positive and atol nonnegative"),
        # the config reader refuses these as it reads them: an infinite
        # tolerance accepts every step at max_step, and an infinite atol
        # makes the undershoot slack infinite
        ({"rtol": math.inf}, "rtol: must be finite"),
        ({"atol": math.inf}, "atol: must be finite"),
        ({"n_samples": 2.5}, "samples: expected an integer"),
    ],
    ids=[
        "zero-max-step", "negative-max-step", "infinite-t_end", "negative-rtol", "zero-tolerances",
        "infinite-rtol", "infinite-atol", "fractional-samples",
    ],
)
def test_integrate_rejects_bad_samples_and_steps(ref1, kwargs, message):
    start = [1.0, 0.75]
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        ag.integrate(start, ref1.params, ref1.feedback, **{"t_end": 1.0, **kwargs})


def test_integrate_takes_numpy_integer_samples(ref1):
    start = [1.0, 0.75]
    traj = ag.integrate(start, ref1.params, ref1.feedback, t_end=1.0, n_samples=np.int64(11))
    assert traj.times.tolist() == np.linspace(0.0, 1.0, 11).tolist()


def test_birth_rates_consistent_with_states(ref2):
    start = [1.3, 0.9, 0.4]
    traj = ag.integrate(start, ref2.params, ref2.feedback, t_end=4.0)
    recompute = [ag.birth_rate(row, ref2.params, ref2.feedback) for row in traj.states]
    np.testing.assert_allclose(traj.birth_rates, recompute, rtol=1e-12, atol=1e-14)
    assert np.all(traj.birth_rates >= 0)
    assert np.all(np.diff(traj.psi_integral) >= 0)


def test_birth_rate_reads_a_state_the_same_in_any_batch():
    # the n = 4 model of the ref2_families case in tools/compare_outputs.py:
    # with four terms in beta.m, the order of the sum shows in the last digit;
    # a Hill phi with m = 2.5 reads (p/k)**m on one state as on a batch
    params = ag.ModelParams(n=4, betas=(0.3, 0.7, 0.2, 0.05), rho=0.5, mu0=0.5, r0=6.0)
    for phi in (ag.make_phi("exponential", k=2.0), ag.make_phi("hill", k=1.0, m=2.5)):
        feedback = ag.FeedbackSpec(phi_family=phi, psi_family=ag.make_psi("power", c=0.5, gamma=1.5))
        start = ag.density_moments(ag.ExponentialDensity(1.65, 1.5), params.rho, params.n)
        traj = ag.integrate(start, params, feedback, t_end=20.0, n_samples=201)
        for t, row, births in zip(traj.times, traj.states, traj.birth_rates):
            alone = ag.birth_rate(row, params, feedback)
            assert alone == births == traj.birth_rate_at(t)
        # one read behind the samples and the readouts: the same bits
        np.testing.assert_array_equal(traj.states, traj.state_at(traj.times))
        np.testing.assert_array_equal(traj.psi_integral, traj.psi_integral_at(traj.times))
        np.testing.assert_array_equal(traj.birth_rates, traj.birth_rate_at(traj.times))


# --- undershoot policy -------------------------------------------------------


def _with_psi(fx, psi):
    return ag.FeedbackSpec(phi_family=fx.feedback.phi_family, psi_family=psi)


def test_unstable_step_undershoots_at_first_step(ref1):
    # rk4 at h=0.5 is far outside its stability region once psi = 50 p
    feedback = _with_psi(ref1, ag.make_psi("linear", c=50.0))
    start = ag.density_moments(ref1.p0, ref1.params.rho, ref1.params.n)
    with pytest.raises(NegativityError, match=r"at t=0\.5 fell below"):
        ag.integrate(start, ref1.params, feedback, t_end=5.0, method="rk4", h=0.5)


def test_undershoot_message_prints_plain_floats(ref1):
    feedback = _with_psi(ref1, ag.make_psi("linear", c=50.0))
    start = ag.density_moments(ref1.p0, ref1.params.rho, ref1.params.n)
    with pytest.raises(NegativityError) as info:
        ag.integrate(start, ref1.params, feedback, t_end=5.0, method="rk4", h=0.5)
    assert "np.float64" not in str(info.value)
    value = re.fullmatch(r"state entry (\S+) at t=0\.5 fell below the -1e-9 negativity slack", str(info.value))
    assert value is not None and float(value[1]) < -1e-9


def test_non_finite_step_is_rejected(ref1):
    # with no feedback and a huge r0 the first rk4 step overflows to inf
    params = ref1.params.with_r0(1e100)
    start = ag.density_moments(ref1.p0, ref1.params.rho, ref1.params.n)
    with np.errstate(all="ignore"), pytest.raises(
        NegativityError, match=r"^state entry inf at t=0\.5 is not finite$"
    ):
        ag.integrate(start, params, ag.FeedbackSpec.linear(), t_end=5.0, method="rk4", h=0.5)


def test_rk45_passes_p_through_zero(ref1):
    # a stage may take p below 0; the feedbacks see max(p, 0), so c * p**1.5
    # stays finite and the step size does not collapse as p decays
    params = ref1.params.with_r0(0.5)
    feedback = _with_psi(ref1, ag.make_psi("power", c=1.0, gamma=1.5))
    start = [1.0, 0.5]
    for t_end in (50.0, 200.0):
        traj = ag.integrate(start, params, feedback, t_end=t_end)  # clamps are expected near p = 0
        assert traj.t_end == t_end and traj.knot_times.size < 150  # 114 and 140 steps
        assert np.all(traj.states[-1] < 1e-10)


def test_readout_below_the_slack_raises(ref1):
    # knots at t = 0 and 1 with zero states and slopes -1 and +1: the cubic
    # Hermite reads -0.25 at t = 0.5, far below the slack
    derivs = np.zeros((2, ref1.params.n + 2))
    derivs[:, 0] = (-1.0, 1.0)
    traj = ag.Trajectory(
        times=np.array([0.0, 1.0]),
        params=ref1.params,
        feedback=ref1.feedback,
        knot_times=np.array([0.0, 1.0]),
        knot_states=np.zeros((2, ref1.params.n + 2)),
        knot_derivs=derivs,
    )
    assert traj.state_at(0.0).tolist() == [0.0, 0.0]
    for read in (traj.state_at, traj.psi_integral_at, traj.birth_rate_at):
        with pytest.raises(NegativityError, match=r"^state entry -0\.25 in the dense output fell below the -1e-9 "):
            read(0.5)


def test_rk45_slack_covers_the_accepted_error(ref1):
    # a step passes at an RMS error of 1 over n + 2 entries, so an entry near
    # zero may carry sqrt(n + 2) * atol: at atol = 1e-8 this dying population
    # reaches -4.6e-9 at a knot at t = 67.2, below a fixed -1e-9 slack
    params = ref1.params.with_r0(0.5)
    start = ag.density_moments(ref1.p0, params.rho, params.n)
    traj = ag.integrate(start, params, ref1.feedback, t_end=200.0, rtol=1e-6, atol=1e-8)
    assert traj.t_end == 200.0 and traj.clamp_count > 0
    assert traj.slack == math.sqrt(3) * 1e-8
    assert np.all(traj.states[-1] < 1e-8)
    tight = ag.integrate(start, params, ref1.feedback, t_end=200.0)
    assert tight.clamp_count > 0
    assert tight.slack == 1e-9  # the default atol keeps the plain slack
    with pytest.raises(NegativityError, match=r"fell below the -1\.73205080756887\d*e-8 negativity slack$"):
        _clamp_undershoot(np.array([1.0, -2e-8]), NegativityError, slack=traj.slack)


def test_undershoot_policy_function():
    y = np.array([1.0, -5e-10, 0.0, -1e-9, 2.5])
    assert _clamp_undershoot(y, ParameterError) == 2
    np.testing.assert_array_equal(y, [1.0, 0.0, 0.0, 0.0, 2.5])
    assert _clamp_undershoot(y, ParameterError) == 0
    with pytest.raises(NegativityError, match=r"^state entry -2e-09 at t=1\.0 fell below"):
        _clamp_undershoot(np.array([1.0, -2e-9]), NegativityError, " at t=1.0")
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(TrajectoryRangeError, match=f"^state entry {bad!r} is not finite"):
            _clamp_undershoot(np.array([-1.0, bad]), TrajectoryRangeError)
