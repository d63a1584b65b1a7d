import math
import warnings

import numpy as np
import pytest

import agestruct as ag
from agestruct.errors import ParameterError
from agestruct.model import fertility_kernel_integral


# --- feedback families ------------------------------------------------------


def test_phi_families_values_and_derivatives():
    phi = ag.make_phi("exponential", k=2.0)
    assert math.isclose(phi(2.0), math.exp(-1.0), rel_tol=1e-15)
    hill = ag.make_phi("hill", k=1.0, m=2.0)
    assert math.isclose(hill(3.0), 1.0 / 10.0, rel_tol=1e-15)
    for fam, x in [(phi, 0.7), (hill, 1.3)]:
        h = 1e-6
        fd = (fam(x + h) - fam(x - h)) / (2 * h)
        assert math.isclose(fam.derivative(x), fd, rel_tol=1e-8)


def test_psi_families_values_and_derivatives():
    lin = ag.make_psi("linear", c=0.4)
    pw = ag.make_psi("power", c=0.5, gamma=2.0)
    assert math.isclose(lin(2.5), 1.0, rel_tol=1e-15)
    assert math.isclose(pw(3.0), 4.5, rel_tol=1e-15)
    for fam, x in [(lin, 0.7), (pw, 1.3)]:
        h = 1e-6
        fd = (fam(x + h) - fam(x - h)) / (2 * h)
        assert math.isclose(fam.derivative(x), fd, rel_tol=1e-8)


@pytest.mark.parametrize(
    "factory",
    [
        lambda: ag.make_phi("exponential", k=0.0),
        lambda: ag.make_phi("hill", k=-1.0),
        lambda: ag.make_phi("hill", k=1.0, m=0.5),
        lambda: ag.make_psi("linear", c=0.0),
        lambda: ag.make_psi("power", c=1.0, gamma=0.9),
        lambda: ag.make_phi("logistic", k=1.0),
        lambda: ag.make_psi("cubic", c=1.0),
        lambda: ag.make_psi("power", c=0.0, gamma=1.5),
    ],
)
def test_family_validation_rejects(factory):
    with pytest.raises(ParameterError):
        factory()


def test_linear_mode_switches_feedback_off():
    fb = ag.FeedbackSpec.linear()
    x = np.linspace(0, 5, 7)
    np.testing.assert_array_equal(fb.phi(x), np.ones_like(x))
    np.testing.assert_array_equal(fb.psi(x), np.zeros_like(x))
    np.testing.assert_array_equal(fb.phi_prime(x), np.zeros_like(x))
    np.testing.assert_array_equal(fb.psi_prime(x), np.zeros_like(x))


def test_family_calls_follow_one_rule():
    # a scalar call is a float with the bits of the one-element array call
    # (numpy's scalar power and its array power can differ in the last bit),
    # and a power beyond the float range reads as its limit: no NaN, no warning
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    scale = st.floats(min_value=1e-3, max_value=1e3)
    exponent = st.floats(min_value=1.0, max_value=3000.0)
    families = st.one_of(
        st.builds(lambda k: ag.make_phi("exponential", k=k), scale),
        st.builds(lambda k, m: ag.make_phi("hill", k=k, m=m), scale, exponent),
        st.builds(lambda c: ag.make_psi("linear", c=c), scale),
        st.builds(lambda c, g: ag.make_psi("power", c=c, gamma=g), scale, exponent),
        st.sampled_from([ag.FeedbackSpec.linear().phi_family, ag.FeedbackSpec.linear().psi_family]),
    )
    sizes = st.one_of(st.floats(min_value=0.0, max_value=10.0), st.floats(min_value=0.0, max_value=1e300))

    @hypothesis.given(family=families, x=sizes)
    @hypothesis.example(family=ag.make_phi("hill", k=1.0, m=2000.0), x=2.0)
    @hypothesis.example(family=ag.make_phi("hill", k=1.9, m=393.84375), x=1.5)
    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def check(family, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (family, family.derivative):
                value, row = call(x), call(np.array([x]))
                assert type(value) is float and not math.isnan(value)
                assert np.float64(value).tobytes() == row.tobytes()

    check()


def test_hill_slope_reads_its_limit_where_the_power_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slope = ag.make_phi("hill", k=1.0, m=2000.0).derivative(2.0)
    assert slope == 0.0 and math.copysign(1.0, slope) == -1.0


# --- normalization and parameters -------------------------------------------


def test_normalize_betas_hits_unit_generation_integral(rng):
    for _ in range(25):
        n = int(rng.integers(1, 9))
        raw = rng.uniform(0.05, 5.0, size=n)
        rho = float(rng.uniform(0.05, 3.0))
        mu0 = float(rng.uniform(0.05, 3.0))
        norm = ag.normalize_betas(raw, rho, mu0)
        assert abs(fertility_kernel_integral(norm, rho + mu0) - 1.0) <= 1e-12


def test_model_params_validation_messages():
    with pytest.raises(ParameterError, match=r"betas\[1\]"):
        ag.ModelParams(n=2, betas=(1.0, -1.0), rho=0.5, mu0=0.5, r0=2.0)
    with pytest.raises(ParameterError, match="expected 2 betas"):
        ag.ModelParams(n=2, betas=(1.0,), rho=0.5, mu0=0.5, r0=2.0)
    with pytest.raises(ParameterError, match="normalized"):
        ag.ModelParams(n=1, betas=(2.0,), rho=0.5, mu0=0.5, r0=2.0, normalized=True)
    with pytest.raises(ParameterError):
        ag.ModelParams(n=1, betas=(1.0,), rho=-0.5, mu0=0.5, r0=2.0)
    with pytest.raises(ParameterError):
        ag.ModelParams(n=0, betas=(), rho=0.5, mu0=0.5, r0=2.0)


def test_with_r0_keeps_everything_else(ref1):
    bumped = ref1.params.with_r0(9.0)
    assert bumped.r0 == 9.0
    assert bumped.betas == ref1.params.betas
    assert bumped.normalized


def test_fertility_age_profile_hand_value():
    params = ag.ModelParams(n=2, betas=(2.0, 3.0), rho=0.7, mu0=0.5, r0=1.0)
    a = 1.3
    expect = (2.0 + 3.0 * a) * math.exp(-0.7 * a)
    assert math.isclose(ag.fertility_age_profile(a, params), expect, rel_tol=1e-14)
    grid = np.array([0.0, 1.0, 2.0])
    vals = ag.fertility_age_profile(grid, params)
    assert vals.shape == grid.shape
    with pytest.raises(ParameterError):
        ag.fertility_age_profile(-0.1, params)


# --- initial densities -------------------------------------------------------


def test_exponential_density_closed_forms():
    p0 = ag.ExponentialDensity(coefficient=1.5, decay=1.5)
    assert math.isclose(p0.mass(), 1.0, rel_tol=1e-15)
    # weighted moment of order 1 with weight rho = 0.5: C/(rho+decay)
    assert math.isclose(p0.weighted_moment(1, 0.5), 0.75, rel_tol=1e-15)
    # order 2: C * 1! / (rho+decay)^2
    assert math.isclose(p0.weighted_moment(2, 0.5), 0.375, rel_tol=1e-15)
    assert math.isclose(p0.evaluate(2.0), 1.5 * math.exp(-3.0), rel_tol=1e-15)
    assert p0.support_end() == pytest.approx(math.log(1e14) / 1.5)
    zero = ag.ExponentialDensity(0.0, 1.0)
    assert zero.mass() == 0.0 and zero.support_end() == 0.0


def test_exponential_moment_out_of_range():
    # 169! / 0.006**170 is about 1e682: it reads as inf, never divides by zero,
    # and a zero coefficient still gives a zero moment
    assert ag.ExponentialDensity(1.5, 0.001).weighted_moment(170, 0.005) == math.inf
    assert ag.ExponentialDensity(0.0, 0.001).weighted_moment(170, 0.005) == 0.0
    # far below the float range it reads as 0
    assert ag.ExponentialDensity(1.5, 1e200).weighted_moment(2, 0.5) == 0.0


def test_tabulated_density_interpolation_and_mass():
    ages = np.linspace(0, 4, 81)
    vals = np.maximum(0.0, 2.0 - ages) ** 2  # supported on [0, 2]
    p0 = ag.TabulatedDensity(ages=ages, values=vals)
    assert p0.evaluate(5.0) == 0.0
    assert math.isclose(p0.evaluate(1.0), 1.0, rel_tol=1e-12)
    assert math.isclose(p0.mass(), 8.0 / 3.0, rel_tol=1e-3)
    assert p0.support_end() == 4.0
    # spacings that differ 99x, where nonuniform Simpson has negative weights
    steep = ag.TabulatedDensity(ages=[0.0, 0.1, 10.0], values=[1.0, 0.0, 0.0])
    assert math.isclose(steep.mass(), 0.05, rel_tol=1e-14)
    assert all(steep.weighted_moment(i, 0.5) >= 0.0 for i in range(1, 171))
    with pytest.raises(ParameterError):
        ag.TabulatedDensity(ages=[0.0, 1.0], values=[1.0, -0.5])
    with pytest.raises(ParameterError):
        ag.TabulatedDensity(ages=[1.0, 0.5], values=[1.0, 1.0])


def test_tabulated_weighted_moments_match_a_fine_grid():
    # composite Simpson on 2000 subintervals of each table segment, where the
    # density is linear: its error is below 1e-15 relative here
    ages = np.linspace(0.0, 8.0, 33)
    values = (1.0 + ages) * np.exp(-0.4 * ages) * (1.2 + np.sin(2.0 * ages))
    p0 = ag.TabulatedDensity(ages=ages, values=values)
    m, rho = 1000, 0.5
    weights = np.ones(2 * m + 1)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    width = np.diff(ages)[:, None]
    a = ages[:-1, None] + width * np.linspace(0.0, 1.0, 2 * m + 1)
    for i in range(1, 9):
        integrand = a ** (i - 1) * np.exp(-rho * a) * np.interp(a, ages, values)
        reference = float(np.sum(width / (6 * m) * weights * integrand))
        assert math.isclose(p0.weighted_moment(i, rho), reference, rel_tol=1e-10), i


def test_density_mass_beyond_an_age():
    exponential = ag.ExponentialDensity(1.5, 1.5)
    assert exponential.mass(0.0) == exponential.mass() == 1.0
    assert math.isclose(exponential.mass(2.0), math.exp(-3.0), rel_tol=1e-15)
    table = ag.TabulatedDensity(ages=(0.5, 1.0, 2.5, 6.0), values=(0.4, 1.2, 0.6, 0.0))
    # at or below the first table age: the whole table, to the bit
    assert table.mass(0.0) == table.mass(0.5) == table.mass()
    assert math.isclose(table.mass(), 0.4 + 1.35 + 1.05, rel_tol=1e-15)
    # the table clipped at a node, between nodes, and past its end
    assert math.isclose(table.mass(1.0), 1.35 + 1.05, rel_tol=1e-15)
    assert math.isclose(table.mass(1.75), 0.75 * (0.9 + 0.6) / 2 + 1.05, rel_tol=1e-15)
    assert math.isclose(table.mass(5.0), 0.5 * 0.6 / 3.5, rel_tol=1e-15)
    assert table.mass(6.0) == table.mass(7.0) == 0.0


_EXP = ag.ExponentialDensity(1.5, 1.5)
_TAB = ag.TabulatedDensity(ages=[0.0, 1.0], values=[1.0, 0.0])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ag.TabulatedDensity(ages=[0.0], values=[1.0]), "tables of length >= 2"),
        (lambda: ag.TabulatedDensity(ages=[0.0, 1.0, 2.0], values=[1.0, 0.5]), "matching 1-d tables"),
        (lambda: ag.TabulatedDensity(ages=[[0.0, 1.0]], values=[[1.0, 0.5]]), "matching 1-d tables"),
        (lambda: _EXP.weighted_moment(0, 0.5), "index must be >= 1"),
        (lambda: _TAB.weighted_moment(0, 0.5), "index must be >= 1"),
        (lambda: ag.density_moments(_EXP, 0.0, 1), "rho > 0 and n >= 1"),
        (lambda: ag.density_moments(_EXP, -0.5, 1), "rho > 0 and n >= 1"),
        (lambda: ag.density_moments(_EXP, 0.5, 0), "rho > 0 and n >= 1"),
        (lambda: fertility_kernel_integral((1.0,), 0.0), "positive decay rate"),
        (lambda: fertility_kernel_integral((1.0,), [1.0, -1.0]), "positive decay rate"),
    ],
    ids=[
        "tabulated-short", "tabulated-mismatched", "tabulated-2d", "exponential-moment-0",
        "tabulated-moment-0", "moments-rho-0", "moments-rho-negative", "moments-n-0",
        "kernel-rate-0", "kernel-rate-negative",
    ],
)
def test_density_and_kernel_checks_reject(call, message):
    with pytest.raises(ParameterError, match=message):
        call()


def test_density_moments_matches_equilibrium_start(ref1):
    state = ag.density_moments(ref1.p0, ref1.params.rho, ref1.params.n)
    assert math.isclose(state[0], 1.0, rel_tol=1e-14)
    assert math.isclose(state[1], 0.75, rel_tol=1e-14)

