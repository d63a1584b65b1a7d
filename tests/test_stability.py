import math

import numpy as np
import pytest

import agestruct as ag
from agestruct.errors import EigenvalueError, ParameterError
from agestruct.stability import eigenvalues, jacobian_at

from conftest import make_ref1, make_ref2


def _sorted(vals):
    vals = np.asarray(vals, dtype=complex)
    return vals[np.lexsort((vals.imag, vals.real))]


def _match_gap(ours, ref):
    # worst distance under greedy nearest pairing; immune to the sort-order
    # flips that fp noise in conjugate-pair real parts can cause
    pool = list(np.asarray(ours, dtype=complex))
    worst = 0.0
    for z in np.asarray(ref, dtype=complex):
        dist = [abs(z - w) for w in pool]
        j = int(np.argmin(dist))
        worst = max(worst, dist[j])
        pool.pop(j)
    return worst


# --- jacobian ----------------------------------------------------------------


def test_ref1_jacobian_exact(ref1):
    eq = ag.equilibrium(ref1.params, ref1.feedback)
    jac = jacobian_at((eq.p_star, *eq.moments_star), ref1.params, ref1.feedback)
    np.testing.assert_allclose(jac, [[-3.25, 2.0], [-1.5, 0.0]], atol=1e-12)


def test_jacobian_matches_finite_differences(rng):
    # random states across both fixtures; directional finite differences of
    # the vector field bound the analytic matrix
    for fx in (make_ref1(), make_ref2()):
        n = fx.params.n
        for _ in range(25):
            base = rng.uniform(0.05, 3.0, size=n + 1)
            jac = jacobian_at(base, fx.params, fx.feedback)
            fd = np.empty_like(jac)
            h = 1e-6
            for j in range(n + 1):
                up, dn = base.copy(), base.copy()
                up[j] += h
                dn[j] -= h
                f_up = ag.rhs(up, fx.params, fx.feedback)
                f_dn = ag.rhs(dn, fx.params, fx.feedback)
                fd[:, j] = (f_up - f_dn) / (2 * h)
            assert np.max(np.abs(jac - fd)) <= 1e-6


def test_jacobian_moment_count_check(ref2):
    with pytest.raises(ParameterError):
        jacobian_at([1.0, 0.5], ref2.params, ref2.feedback)


# --- eigenvalue solver ---------------------------------------------------------


def test_eigenvalues_diagonal_and_triangular():
    diag = eigenvalues(np.diag([3.0, -1.0, 0.5]))
    assert diag.dtype == complex  # an all-real spectrum still comes back complex
    np.testing.assert_allclose(diag, _sorted([-1.0, 0.5, 3.0]), atol=1e-12)
    tri = np.array([[2.0, 1.0], [0.0, 2.0]])
    np.testing.assert_allclose(eigenvalues(tri), [2.0, 2.0], atol=1e-10)


def test_eigenvalues_rotation_pair():
    theta = 0.7
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    expect = [complex(math.cos(theta), -math.sin(theta)),
              complex(math.cos(theta), math.sin(theta))]
    evs = eigenvalues(rot)
    assert _match_gap(evs, expect) <= 1e-12
    # an exact conjugate pair, negative imaginary part first
    assert evs[0] == np.conj(evs[1])
    assert evs[0].imag < 0.0


def test_eigenvalues_companion_matrix():
    # x^4 - 10x^3 + 35x^2 - 50x + 24 = (x-1)(x-2)(x-3)(x-4)
    comp = np.zeros((4, 4))
    comp[0] = [10.0, -35.0, 50.0, -24.0]
    comp[1, 0] = comp[2, 1] = comp[3, 2] = 1.0
    np.testing.assert_allclose(eigenvalues(comp), [1.0, 2.0, 3.0, 4.0], atol=1e-8)


def test_eigenvalues_against_numpy_on_random_matrices(rng):
    for size in (2, 3, 5, 8):
        for _ in range(10):
            a = rng.standard_normal((size, size)) * rng.uniform(0.5, 4.0)
            ref = np.linalg.eigvals(a)
            scale = float(np.max(np.abs(ref))) or 1.0
            assert _match_gap(eigenvalues(a), ref) <= 1e-8 * scale


def test_eigenvalues_input_validation():
    with pytest.raises(ParameterError):
        eigenvalues(np.ones((2, 3)))
    with pytest.raises(ParameterError):
        eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_eigenvalues_lapack_failure_raises(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.raises(EigenvalueError) as err:
        eigenvalues(np.eye(3))
    assert isinstance(err.value.__cause__, np.linalg.LinAlgError)


# --- classification ------------------------------------------------------------


def test_classify_ref1(ref1):
    eq = ag.equilibrium(ref1.params, ref1.feedback)
    rep = ag.classify(eq, ref1.params, ref1.feedback)
    assert rep.verdict == "asymptotically stable"
    assert math.isclose(rep.spectral_abscissa, -1.625, abs_tol=1e-10)
    assert math.isclose(rep.trace, -3.25, abs_tol=1e-12)
    expect = [complex(-1.625, -0.5994789404140899), complex(-1.625, 0.5994789404140899)]
    assert _match_gap(rep.eigenvalues, expect) <= 1e-10


def test_classify_trivial_tracks_bifurcation():
    # the zero state loses stability exactly where the nontrivial branch is born
    assert ag.classify_trivial(make_ref1(0.5).params, make_ref1(0.5).feedback).verdict == \
        "asymptotically stable"
    assert ag.classify_trivial(make_ref1(1.0).params, make_ref1(1.0).feedback).verdict == \
        "marginal"
    assert ag.classify_trivial(make_ref1(4.0).params, make_ref1(4.0).feedback).verdict == \
        "unstable"
    # a spectral abscissa of -1e-5 or +1e-5 is a verdict, not "marginal": the
    # margin only absorbs round-off, far below any real growth rate
    for r0, verdict in ((1.0 - 1e-5, "asymptotically stable"), (1.0 + 1e-5, "unstable")):
        assert ag.classify_trivial(make_ref1(r0).params, make_ref1(r0).feedback).verdict == verdict


def test_trivial_jacobian_ref1(ref1):
    rep = ag.classify_trivial(ref1.params, ref1.feedback)
    np.testing.assert_allclose(rep.jacobian, [[-0.5, 4.0], [0.0, 3.0]], atol=1e-14)
    np.testing.assert_allclose(rep.eigenvalues, [-0.5, 3.0], atol=1e-12)
