import math

import numpy as np
import pytest

import agestruct as ag
from agestruct.errors import BracketDivergenceError, ParameterError

from conftest import make_ref1


def test_net_reproduction_closed_form(ref1):
    # for this family R(x) = r0 / (1+x)^2
    for x in (0.0, 0.3, 1.0, 4.0):
        assert math.isclose(
            ag.net_reproduction(x, ref1.params, ref1.feedback), 4.0 / (1 + x) ** 2, rel_tol=1e-14
        )
    with pytest.raises(ParameterError):
        ag.net_reproduction(-0.5, ref1.params, ref1.feedback)


def test_reproduction_derivative_closed_form(ref1):
    for x in (0.0, 0.5, 2.0):
        expect = -8.0 / (1 + x) ** 3
        got = ag.reproduction_derivative(x, ref1.params, ref1.feedback)
        assert math.isclose(got, expect, rel_tol=1e-13)


def test_reproduction_derivative_matches_central_difference(ref2, rng):
    for x in rng.uniform(0.01, 6.0, size=40):
        h = 1e-5 * max(1.0, x)
        fd = (
            ag.net_reproduction(x + h, ref2.params, ref2.feedback)
            - ag.net_reproduction(x - h, ref2.params, ref2.feedback)
        ) / (2 * h)
        got = ag.reproduction_derivative(x, ref2.params, ref2.feedback)
        assert got < 0
        assert math.isclose(got, fd, rel_tol=1e-7)


def test_reproduction_derivative_rejects_linear_mode(linear_fixture):
    # with both feedbacks off R is constant, so its derivative is exactly zero
    for x in (0.0, 1.0, 1e6):
        assert ag.reproduction_derivative(x, linear_fixture.params, linear_fixture.feedback) == 0.0


@pytest.mark.parametrize("function", [ag.net_reproduction, ag.reproduction_derivative])
@pytest.mark.parametrize("x", [-1.0, math.inf, math.nan])
def test_reproduction_rejects_x_outside_its_domain(ref1, function, x):
    with pytest.raises(ParameterError, match="finite x >= 0"):
        function(x, ref1.params, ref1.feedback)


def test_equilibrium_laws_on_random_models():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    positive = st.floats(min_value=0.2, max_value=3.0)
    exponent = st.floats(min_value=1.0, max_value=3.0)
    phis = st.one_of(
        st.builds(lambda k: ag.make_phi("exponential", k=k), positive),
        st.builds(lambda k, m: ag.make_phi("hill", k=k, m=m), positive, exponent),
    )
    psis = st.one_of(
        st.builds(lambda c: ag.make_psi("linear", c=c), positive),
        st.builds(lambda c, g: ag.make_psi("power", c=c, gamma=g), positive, exponent),
    )

    @hypothesis.given(
        n=st.integers(min_value=1, max_value=3),
        raw_betas=st.lists(positive, min_size=3, max_size=3),
        rho=positive,
        mu0=positive,
        r0=st.floats(min_value=1.1, max_value=50.0),
        phi=phis,
        psi=psis,
        x=st.floats(min_value=0.05, max_value=5.0),
    )
    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def check(n, raw_betas, rho, mu0, r0, phi, psi, x):
        params = ag.ModelParams(
            n=n, betas=ag.normalize_betas(raw_betas[:n], rho, mu0), rho=rho, mu0=mu0, r0=r0,
            normalized=True,
        )
        feedback = ag.FeedbackSpec(phi_family=phi, psi_family=psi)
        eq = ag.equilibrium(params, feedback)
        assert eq.exists
        assert eq.residual_inf_norm <= 1e-10
        assert abs(ag.net_reproduction(eq.p_star, params, feedback) - 1.0) <= 1e-12

        h = 1e-5 * max(1.0, x)
        fd = (
            ag.net_reproduction(x + h, params, feedback)
            - ag.net_reproduction(x - h, params, feedback)
        ) / (2 * h)
        got = ag.reproduction_derivative(x, params, feedback)
        assert got < 0
        assert math.isclose(got, fd, rel_tol=1e-6, abs_tol=1e-10 * r0)

    check()


@pytest.mark.parametrize("r0", [1.21, 1.0001, 4.0, 9.0, 144.0])
def test_steady_state_square_root_law(r0):
    fx = make_ref1(r0)
    p_star = ag.steady_state(fx.params, fx.feedback)
    assert p_star is not None
    assert abs(p_star - (math.sqrt(r0) - 1.0)) <= 1e-10


@pytest.mark.parametrize("r0", [0.2, 0.999, 1.0])
def test_steady_state_none_at_or_below_threshold(r0):
    fx = make_ref1(r0)
    assert ag.steady_state(fx.params, fx.feedback) is None


def test_steady_state_diverges_without_feedback(linear_fixture):
    # R is constant above one here, so no finite bracket can exist
    with pytest.raises(BracketDivergenceError):
        ag.steady_state(linear_fixture.params, linear_fixture.feedback)


def test_equilibrium_reports_ref1(ref1):
    eq = ag.equilibrium(ref1.params, ref1.feedback)
    assert eq.exists
    assert abs(eq.p_star - 1.0) <= 1e-12
    assert abs(eq.moments_star[0] - 0.75) <= 1e-12
    assert abs(eq.birth_rate_star - 1.5) <= 1e-12
    assert eq.residual_inf_norm <= 1e-12


def test_equilibrium_reports_ref2(ref2):
    eq = ag.equilibrium(ref2.params, ref2.feedback)
    assert eq.exists
    assert abs(eq.p_star - 1.0) <= 1e-12
    np.testing.assert_allclose(eq.moments_star, (0.75, 0.375), atol=1e-12)
    assert abs(eq.birth_rate_star - 1.5) <= 1e-12
    assert eq.residual_inf_norm <= 1e-12


def test_equilibrium_below_threshold_reports_origin():
    fx = make_ref1(0.8)
    eq = ag.equilibrium(fx.params, fx.feedback)
    assert not eq.exists
    assert eq.p_star == 0.0
    assert eq.residual_inf_norm == 0.0


def test_trivial_equilibrium_is_exact(ref2):
    eq = ag.trivial_equilibrium(ref2.params, ref2.feedback)
    assert eq.p_star == 0.0
    assert eq.moments_star == (0.0, 0.0)
    assert eq.residual_inf_norm == 0.0


def test_bifurcation_sweep_order_and_existence(ref1):
    grid = [0.5, 1.0, 1.21, 4.0, 9.0]
    points = ag.bifurcation_sweep(ref1.params, ref1.feedback, grid)
    assert [pt.r0 for pt in points] == grid
    assert [pt.exists for pt in points] == [False, False, True, True, True]
    expected = [None, None, 0.1, 1.0, 2.0]
    for pt, want in zip(points, expected):
        if want is not None:
            assert abs(pt.p_star - want) <= 1e-10


def test_bifurcation_sweep_validates_grid(ref1):
    with pytest.raises(ParameterError):
        ag.bifurcation_sweep(ref1.params, ref1.feedback, [])
    with pytest.raises(ParameterError):
        ag.bifurcation_sweep(ref1.params, ref1.feedback, [1.0, -2.0])


# --- the array root solver against the scalar loop it replaced --------------


def _reference_root(params, feedback, tol=1e-12):
    """The scalar bracket, bisect and Newton loop that steady_state ran before
    the array solver, with the kernel summed on Python floats."""

    def kernel(betas, rate):
        return float(sum(b * math.factorial(i) / rate ** (i + 1) for i, b in enumerate(betas)))

    def reproduction(x):
        rate = params.rho + params.mu0 + float(feedback.psi(x))
        return params.r0 * float(feedback.phi(x)) * kernel(params.betas, rate)

    def slope(x):
        rate = params.rho + params.mu0 + float(feedback.psi(x))
        return params.r0 * (
            float(feedback.phi_prime(x)) * kernel(params.betas, rate)
            - float(feedback.phi(x)) * float(feedback.psi_prime(x)) * kernel((0.0, *params.betas), rate)
        )

    if reproduction(0.0) <= 1.0:
        return None
    lo, hi = 0.0, 1.0
    while reproduction(hi) >= 1.0:
        if not math.isfinite(2.0 * hi):
            raise BracketDivergenceError("no sign change")
        lo, hi = hi, 2.0 * hi
    while hi - lo > tol:
        mid = 0.5 * lo + 0.5 * hi
        if mid == lo or mid == hi:
            break
        if reproduction(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * lo + 0.5 * hi
    for _ in range(5):
        fx = reproduction(x) - 1.0
        if abs(fx) <= 1e-14:
            break
        dfx = slope(x)
        if dfx == 0.0:
            break
        x_next = x - fx / dfx
        if not math.isfinite(x_next) or x_next < 0.0:
            break
        x = x_next
    return x


def test_sweep_matches_scalar_reference_on_random_models():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    positive = st.floats(min_value=0.2, max_value=3.0)
    exponent = st.floats(min_value=1.0, max_value=3.0)
    # the switched-off families too: with both off R is constant and no bracket exists
    off = ag.FeedbackSpec.linear()
    phis = st.one_of(
        st.builds(lambda k: ag.make_phi("exponential", k=k), positive),
        st.builds(lambda k, m: ag.make_phi("hill", k=k, m=m), positive, exponent),
        st.just(off.phi_family),
    )
    psis = st.one_of(
        st.builds(lambda c: ag.make_psi("linear", c=c), positive),
        st.builds(lambda c, g: ag.make_psi("power", c=c, gamma=g), positive, exponent),
        st.just(off.psi_family),
    )

    @hypothesis.given(
        n=st.integers(min_value=1, max_value=5),
        raw_betas=st.lists(positive, min_size=5, max_size=5),
        rho=positive,
        mu0=positive,
        phi=phis,
        psi=psis,
        grid=st.lists(st.floats(min_value=0.3, max_value=300.0), min_size=1, max_size=8),
    )
    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def check(n, raw_betas, rho, mu0, phi, psi, grid):
        params = ag.ModelParams(
            n=n, betas=ag.normalize_betas(raw_betas[:n], rho, mu0), rho=rho, mu0=mu0, r0=1.0,
            normalized=True,
        )
        feedback = ag.FeedbackSpec(phi_family=phi, psi_family=psi)
        try:
            expected = [_reference_root(params.with_r0(r), feedback) for r in grid]
        except BracketDivergenceError:
            with pytest.raises(BracketDivergenceError):
                ag.bifurcation_sweep(params, feedback, grid)
            return
        points = ag.bifurcation_sweep(params, feedback, grid)
        assert [pt.r0 for pt in points] == grid
        for pt, want in zip(points, expected):
            assert pt.exists == (want is not None)
            if want is None:
                assert pt.p_star is None
            else:
                assert abs(pt.p_star - want) <= 1e-14 * want

    check()


def test_sweep_is_bitwise_per_point_on_a_fine_grid(ref1):
    grid = np.logspace(-1, 3, 2000).tolist()
    swept = [pt.p_star for pt in ag.bifurcation_sweep(ref1.params, ref1.feedback, grid)]
    assert swept == [_reference_root(ref1.params.with_r0(r), ref1.feedback) for r in grid]
    # steady_state is the one-element case; every tenth point keeps this quick
    assert swept[::10] == [ag.steady_state(ref1.params.with_r0(r), ref1.feedback) for r in grid[::10]]
