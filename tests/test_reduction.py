import math
import re
import warnings

import numpy as np
import pytest

import agestruct as ag
from agestruct import reduction
from agestruct.errors import NegativityError, ParameterError, TrajectoryRangeError
from agestruct.reduction import StateVector, _clamp_undershoot


# --- state vector ------------------------------------------------------------


def test_state_vector_clamps_tiny_negatives():
    s = StateVector(p=-5e-10, moments=(-1e-12, 0.5))
    assert s.p == 0.0
    assert s.moments[0] == 0.0 and s.moments[1] == 0.5


def test_state_vector_rejects_real_negatives():
    with pytest.raises(ParameterError, match="negativity slack"):
        StateVector(p=-1e-6, moments=(0.0,))
    with pytest.raises(ParameterError, match="negativity slack"):
        StateVector(p=1.0, moments=(-2e-9,))


def test_state_vector_array_round_trip():
    s = StateVector(p=1.25, moments=(0.5, 0.125))
    again = StateVector.from_array(s.as_array())
    assert again.p == s.p and again.moments == s.moments


# --- right-hand side ---------------------------------------------------------


def test_rhs_vanishes_at_equilibrium(ref1, ref2):
    for fx in (ref1, ref2):
        eq = ag.equilibrium(fx.params, fx.feedback)
        state = StateVector(p=eq.p_star, moments=eq.moments_star)
        deriv = ag.rhs(state, fx.params, fx.feedback)
        assert np.max(np.abs(deriv.as_array())) <= 1e-13


def test_birth_rate_closed_form(ref2):
    state = StateVector(p=1.0, moments=(0.75, 0.375))
    # r0 * phi(1) * (b1*m1 + b2*m2) = (16/3)(1/2)(0.5*0.75 + 0.5*0.375)
    assert math.isclose(ag.birth_rate(state, ref2.params, ref2.feedback), 1.5, rel_tol=1e-14)


def test_rhs_moment_count_mismatch(ref2):
    with pytest.raises(ParameterError):
        ag.rhs(StateVector(p=1.0, moments=(0.75,)), ref2.params, ref2.feedback)


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
    # last stage of an accepted step is the next step's first (FSAL)
    calls = []
    rhs_array = reduction._rhs_array

    def counted(*args):
        calls.append(args)
        return rhs_array(*args)

    monkeypatch.setattr(reduction, "_rhs_array", counted)
    start = ag.density_moments(ref1.p0, ref1.params.rho, ref1.params.n)
    # the stationary start rejects no step
    for kwargs, per_step in (({"method": "rk4", "h": 0.05}, 4), ({}, 6)):
        calls.clear()
        traj = ag.integrate(start, ref1.params, ref1.feedback, t_end=20.0, **kwargs)
        assert len(calls) == 1 + per_step * (traj.knot_times.size - 1)
    calls.clear()
    traj = ag.integrate(start, ref1.params.with_r0(20.0), ref1.feedback, t_end=50.0)
    attempts, rest = divmod(len(calls) - 1, 6)
    assert rest == 0 and attempts > traj.knot_times.size - 1  # some steps were rejected


def test_trajectory_sampling_and_dense_output(ref1):
    start = StateVector(p=1.2, moments=(0.8,))
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
    start = StateVector(p=1.0, moments=(0.75,))
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


def test_integrate_validates_arguments(ref1):
    start = StateVector(p=1.0, moments=(0.75,))
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
    ],
    ids=[
        "zero-max-step", "negative-max-step", "infinite-t_end", "negative-rtol", "zero-tolerances",
    ],
)
def test_integrate_rejects_bad_samples_and_steps(ref1, kwargs, message):
    start = StateVector(p=1.0, moments=(0.75,))
    with pytest.raises(ParameterError, match=message):
        ag.integrate(start, ref1.params, ref1.feedback, **{"t_end": 1.0, **kwargs})


def test_birth_rates_consistent_with_states(ref2):
    start = StateVector(p=1.3, moments=(0.9, 0.4))
    traj = ag.integrate(start, ref2.params, ref2.feedback, t_end=4.0)
    recompute = [
        ag.birth_rate(StateVector(p=row[0], moments=tuple(row[1:])), ref2.params, ref2.feedback)
        for row in traj.states
    ]
    np.testing.assert_allclose(traj.birth_rates, recompute, rtol=1e-12, atol=1e-14)
    assert np.all(traj.birth_rates >= 0)
    assert np.all(np.diff(traj.psi_integral) >= 0)


def test_birth_rate_reads_a_state_the_same_in_any_batch():
    # the n = 4 model of the ref2_families case in tools/compare_outputs.py:
    # with four terms in beta.m, the order of the sum shows in the last digit
    params = ag.ModelParams(n=4, betas=(0.3, 0.7, 0.2, 0.05), rho=0.5, mu0=0.5, r0=6.0)
    feedback = ag.FeedbackSpec(
        phi_family=ag.make_phi("exponential", k=2.0), psi_family=ag.make_psi("power", c=0.5, gamma=1.5)
    )
    start = ag.density_moments(ag.ExponentialDensity(1.65, 1.5), params.rho, params.n)
    traj = ag.integrate(start, params, feedback, t_end=20.0, n_samples=201)
    for t, row, births in zip(traj.times, traj.states, traj.birth_rates):
        alone = ag.birth_rate(StateVector.from_array(row), params, feedback)
        assert alone == births == traj.birth_rate_at(t)


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
    start = StateVector(p=1.0, moments=(0.5,))
    for t_end in (50.0, 200.0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # clamps are expected near p = 0
            traj = ag.integrate(start, params, feedback, t_end=t_end)
        assert traj.t_end == t_end and traj.knot_times.size < 150  # 114 and 140 steps
        assert np.all(traj.states[-1] < 1e-10)


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
