import os
from pathlib import Path

import numpy as np
import pytest

import agestruct as ag


class Fixture:
    """Bundle of model pieces used across the suite."""

    def __init__(self, params, feedback, p0):
        self.params = params
        self.feedback = feedback
        self.p0 = p0


def make_ref1(r0=4.0):
    # n=1, unit fertility coefficient, rho = mu0 = 0.5, saturating birth
    # feedback with unit scale, proportional mortality feedback.
    # Closed forms: R(x) = r0/(1+x)^2, equilibrium p* = sqrt(r0) - 1.
    params = ag.ModelParams(n=1, betas=(1.0,), rho=0.5, mu0=0.5, r0=r0, normalized=True)
    feedback = ag.FeedbackSpec(
        phi_family=ag.make_phi("hill", k=1.0, m=1.0),
        psi_family=ag.make_psi("linear", c=1.0),
    )
    p0 = ag.ExponentialDensity(coefficient=1.5, decay=1.5)  # stationary at r0=4
    return Fixture(params, feedback, p0)


def make_ref2():
    # n=2 companion with the same equilibrium: p* = 1, moments (0.75, 0.375),
    # birth rate 1.5, and the same stationary age profile 1.5 e^{-1.5 a}.
    params = ag.ModelParams(
        n=2, betas=(0.5, 0.5), rho=0.5, mu0=0.5, r0=16.0 / 3.0, normalized=True
    )
    feedback = ag.FeedbackSpec(
        phi_family=ag.make_phi("hill", k=1.0, m=1.0),
        psi_family=ag.make_psi("linear", c=1.0),
    )
    p0 = ag.ExponentialDensity(coefficient=1.5, decay=1.5)
    return Fixture(params, feedback, p0)


def make_linear(r0=2.0):
    # feedback switched off; with the normalized profile the first moment
    # grows exactly like exp((r0 - 1) t) since rho + mu0 = 1.
    params = ag.ModelParams(n=1, betas=(1.0,), rho=0.5, mu0=0.5, r0=r0, normalized=True)
    return Fixture(params, ag.FeedbackSpec.linear(), ag.ExponentialDensity(1.5, 1.5))


def package_env():
    """Environment whose PYTHONPATH puts the imported package first."""
    env = dict(os.environ)
    src = str(Path(ag.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture
def ref1():
    return make_ref1()


@pytest.fixture
def ref2():
    return make_ref2()


@pytest.fixture
def linear_fixture():
    return make_linear()


@pytest.fixture
def rng():
    return np.random.default_rng(20250814)
