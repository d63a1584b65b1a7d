import dataclasses
import math

import numpy as np
import pytest

import agestruct as ag
from agestruct.errors import ParameterError, TrajectoryRangeError
from agestruct.reconstruct import (
    DensityField,
    characteristic_jump,
    consistency_check,
    default_age_grid,
    reconstruct_density,
)

from conftest import make_linear


def _run(fx, t_end, **kw):
    start = ag.density_moments(fx.p0, fx.params.rho, fx.params.n)
    return ag.integrate(start, fx.params, fx.feedback, t_end, rtol=1e-10, atol=1e-12, **kw)


# --- pointwise values -----------------------------------------------------------


def test_time_zero_returns_initial_density(ref1):
    traj = _run(ref1, 1.0)
    ages = np.linspace(0.0, 8.0, 161)
    field = reconstruct_density(traj, ref1.p0, ref1.params, ref1.feedback, 0.0, ages)
    np.testing.assert_array_equal(field.values, ref1.p0.evaluate(ages))
    assert field.time == 0.0


def test_linear_mode_closed_form():
    # with feedback off both branches are explicit: the survived cohort is
    # p0(a - t) e^{-mu0 t}, and for n = 1 the renewal branch rides on the
    # exactly exponential first moment, B(t) = r0 * p1(0) * exp((r0 - 1) t).
    fx = make_linear()
    p0 = ag.ExponentialDensity(coefficient=1.0, decay=1.0)
    start = ag.density_moments(p0, fx.params.rho, fx.params.n)
    traj = ag.integrate(start, fx.params, fx.feedback, 2.0, rtol=1e-12, atol=1e-14)

    field = reconstruct_density(traj, p0, fx.params, fx.feedback, 1.0, [0.25, 2.0])
    np.testing.assert_allclose(field.values[1], math.exp(-1.5), rtol=1e-12)
    b = 2.0 * (2.0 / 3.0) * math.exp(0.75)  # birth rate at t - a = 0.75
    np.testing.assert_allclose(field.values[0], b * math.exp(-0.5 * 0.25), rtol=1e-8)


def test_stationary_profile_recovered(ref1):
    traj = _run(ref1, 60.0)
    ages = np.linspace(0.0, 30.0, 6001)
    field = reconstruct_density(traj, ref1.p0, ref1.params, ref1.feedback, 60.0, ages)
    expect = 1.5 * np.exp(-1.5 * ages)
    assert np.max(np.abs(field.values - expect)) <= 1e-6

    report = consistency_check(field, traj, ref1.p0)
    assert report.relative_mass_error <= 1e-6
    assert report.reference_mass == pytest.approx(1.0, abs=1e-8)


# --- mass balance ---------------------------------------------------------------


def test_consistency_at_time_zero(ref1):
    traj = _run(ref1, 1.0)
    ages = np.linspace(0.0, ref1.p0.support_end(), 4001)
    field = reconstruct_density(traj, ref1.p0, ref1.params, ref1.feedback, 0.0, ages)
    report = consistency_check(field, traj, ref1.p0)
    assert report.relative_mass_error <= 1e-6
    assert report.tail_mass == 0.0


def test_consistency_splits_at_characteristic(ref1):
    # query time sitting exactly on a grid node: the split must replace the
    # node by the two one-sided limits instead of producing an empty panel
    p0 = ag.ExponentialDensity(coefficient=0.8, decay=1.5)
    start = ag.density_moments(p0, ref1.params.rho, ref1.params.n)
    traj = ag.integrate(start, ref1.params, ref1.feedback, 8.0, rtol=1e-10, atol=1e-12)
    grid = np.linspace(0.0, 12.0, 1201)
    t = 2.0
    assert np.min(np.abs(grid - t)) <= 1e-12
    field = reconstruct_density(traj, p0, ref1.params, ref1.feedback, t, grid)
    report = consistency_check(field, traj, p0)
    assert math.isfinite(report.relative_mass_error)
    assert report.relative_mass_error <= 1e-6

    # without the split the density jump at a = t degrades the quadrature
    blunt = consistency_check(field, traj)
    assert report.relative_mass_error < blunt.relative_mass_error


def test_zero_population_is_exactly_consistent(ref1):
    p0 = ag.TabulatedDensity(ages=(0.0, 1.0), values=(0.0, 0.0))
    start = ag.density_moments(p0, ref1.params.rho, ref1.params.n)
    traj = ag.integrate(start, ref1.params, ref1.feedback, 1.0)
    grid = default_age_grid(traj, p0)
    assert grid[-1] == pytest.approx(0.1)  # falls back to ten steps
    field = reconstruct_density(traj, p0, ref1.params, ref1.feedback, 0.05, grid)
    assert np.all(field.values == 0.0)
    report = consistency_check(field, traj, p0)
    assert report.relative_mass_error == 0.0


def test_tail_compensates_short_grid(ref1):
    # stationary run cut off at age 5: the frozen-rate tail equals the
    # missing exponential mass exactly, so the balance still closes
    traj = _run(ref1, 60.0)
    ages = np.linspace(0.0, 5.0, 501)
    field = reconstruct_density(traj, ref1.p0, ref1.params, ref1.feedback, 60.0, ages)
    report = consistency_check(field, traj, ref1.p0)
    np.testing.assert_allclose(report.tail_mass, math.exp(-7.5), rtol=1e-6)
    assert report.relative_mass_error <= 1e-6


# --- jump across a = t ----------------------------------------------------------


def test_jump_vanishes_for_compatible_data(ref1):
    traj = _run(ref1, 2.0)
    assert characteristic_jump(traj, ref1.p0, 1.0) == 0.0


def test_jump_matches_branch_mismatch(ref1):
    p0 = ag.ExponentialDensity(coefficient=1.2, decay=1.5)
    start = ag.density_moments(p0, ref1.params.rho, ref1.params.n)
    traj = ag.integrate(start, ref1.params, ref1.feedback, 3.0, rtol=1e-10, atol=1e-12)

    # p0(0) = 1.2 while B(0) = 4 * (1 / 1.8) * 0.6 = 4/3
    t = 1.0
    survival = math.exp(-0.5 * t - traj.psi_integral_at(t))
    expect = survival * abs(1.2 - 4.0 / 3.0)
    np.testing.assert_allclose(characteristic_jump(traj, p0, t), expect, rtol=1e-12)

    # one-sided limits of the reconstructed profile reproduce the same gap
    eps = 1e-7
    field = reconstruct_density(traj, p0, ref1.params, ref1.feedback, t, [t - eps, t + eps])
    gap = abs(field.values[0] - field.values[1])
    np.testing.assert_allclose(gap, expect, rtol=1e-4)


def test_jump_reads_b0_from_the_dense_output(ref1):
    # B(0) is the birth rate of the start state, however many samples there are
    p0 = ag.ExponentialDensity(coefficient=1.65, decay=1.5)
    start = ag.density_moments(p0, ref1.params.rho, ref1.params.n)
    default = ag.integrate(start, ref1.params, ref1.feedback, 20.0)
    sparse = ag.integrate(start, ref1.params, ref1.feedback, 20.0, n_samples=3)
    jump = characteristic_jump(default, p0, 10.0)
    assert characteristic_jump(sparse, p0, 10.0) == jump
    survival = math.exp(-0.5 * 10.0 - default.psi_integral_at(10.0))
    b0 = ag.birth_rate(start, ref1.params, ref1.feedback)
    assert jump == pytest.approx(survival * abs(1.65 - b0), rel=1e-12)


# --- grids and validation -------------------------------------------------------


def test_default_age_grid_covers_tail(ref1):
    traj = _run(ref1, 10.0)
    grid = default_age_grid(traj, ref1.p0)
    assert grid[0] == 0.0
    np.testing.assert_allclose(np.diff(grid), 0.01, rtol=1e-9)
    amplitude = ref1.p0.mass() + float(np.max(traj.birth_rates))
    assert math.exp(-0.5 * grid[-1]) * amplitude <= 1.001e-10

    coarse = default_age_grid(traj, ref1.p0, step=0.5)
    np.testing.assert_allclose(np.diff(coarse), 0.5, rtol=1e-9)
    with pytest.raises(ParameterError):
        default_age_grid(traj, ref1.p0, step=0.0)


def test_density_field_validation():
    with pytest.raises(ParameterError, match="strictly increasing"):
        DensityField(age_grid=[0.0, 1.0, 1.0], time=0.0, values=[1.0, 1.0, 1.0])
    with pytest.raises(ParameterError, match="nonnegative"):
        DensityField(age_grid=[-1.0, 1.0], time=0.0, values=[1.0, 1.0])
    with pytest.raises(ParameterError, match="shape"):
        DensityField(age_grid=[0.0, 1.0], time=0.0, values=[1.0, 1.0, 1.0])
    with pytest.raises(ParameterError, match="finite"):
        DensityField(age_grid=[0.0, 1.0], time=0.0, values=[1.0, math.nan])
    with pytest.raises(ParameterError, match="two nodes"):
        DensityField(age_grid=[0.0], time=0.0, values=[1.0])

    field = DensityField(age_grid=np.linspace(0.0, 2.0, 5), time=0.0,
                         values=np.linspace(1.0, 0.0, 5))
    assert field.mass() == pytest.approx(1.0, abs=1e-12)


def test_reconstruct_rejects_out_of_range_times(ref1):
    traj = _run(ref1, 1.0)
    with pytest.raises(TrajectoryRangeError):
        reconstruct_density(traj, ref1.p0, ref1.params, ref1.feedback, 1.5, [0.0, 1.0])
    with pytest.raises(TrajectoryRangeError):
        reconstruct_density(traj, ref1.p0, ref1.params, ref1.feedback, -0.5, [0.0, 1.0])
    for t in (math.inf, math.nan):
        with pytest.raises(ParameterError):
            reconstruct_density(traj, ref1.p0, ref1.params, ref1.feedback, t, [0.0, 1.0])


def test_reconstruct_rejects_other_models_than_the_trajectorys(ref1):
    # both branches read mu0 from the trajectory, so other parameters or
    # feedback cannot mix into one density; equal copies are accepted
    traj = _run(ref1, 2.0)
    ages = [0.5, 3.0]
    other_mu0 = dataclasses.replace(ref1.params, mu0=2.0 * ref1.params.mu0, normalized=False)
    other_feedback = ag.FeedbackSpec(ref1.feedback.phi_family, ag.make_psi("linear", c=2.0))
    for params, feedback in ((other_mu0, ref1.feedback), (ref1.params, other_feedback)):
        with pytest.raises(ParameterError, match="trajectory"):
            reconstruct_density(traj, ref1.p0, params, feedback, 1.0, ages)
    copy = dataclasses.replace(ref1.params)
    field = reconstruct_density(traj, ref1.p0, copy, ref1.feedback, 1.0, ages)
    np.testing.assert_array_equal(
        field.values, reconstruct_density(traj, ref1.p0, traj.params, traj.feedback, 1.0, ages).values
    )
