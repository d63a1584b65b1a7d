"""Model parameters, crowding feedbacks, and initial age densities.

Fertility is a polynomial-times-exponential age profile
``sum_i beta_i * a**i * exp(-rho * a)`` scaled by ``r0`` and damped by a
decreasing function ``phi`` of total population size; mortality is a base
rate ``mu0`` plus an increasing crowding term ``psi`` of population size.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError


def _scalar_or_array(x, out):
    if np.ndim(x) == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# feedback families


class _Feedback:
    """A feedback family: its config ``name``, its checks, and two array formulas, value(x) and slope(x).

    Calls read x as a float array, and a scalar x as the one-element array,
    whose entry they return as a float. A power beyond the float range reads
    as its limit, inf or 0, without a warning.
    """

    def __call__(self, x):
        return self._evaluate(self.value, x)

    def derivative(self, x):
        return self._evaluate(self.slope, x)

    @staticmethod
    def _evaluate(formula, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            out = formula(np.atleast_1d(x))
        return float(out[0]) if x.ndim == 0 else out


@dataclass(frozen=True)
class ExponentialPhi(_Feedback):
    """Fertility damping exp(-x / k): 1 at zero crowding, vanishing at infinity."""

    name = "exponential"
    k: float

    def __post_init__(self):
        if not (self.k > 0):
            raise ParameterError("phi exponential family: k must be > 0")

    def value(self, x):
        return np.exp(-x / self.k)

    def slope(self, x):
        return -np.exp(-x / self.k) / self.k


@dataclass(frozen=True)
class HillPhi(_Feedback):
    """Fertility damping 1 / (1 + (x/k)**m) with half-saturation k and slope m >= 1."""

    name = "hill"
    k: float
    m: float = 1.0

    def __post_init__(self):
        if not (self.k > 0):
            raise ParameterError("phi hill family: k must be > 0")
        if not (self.m >= 1):
            raise ParameterError("phi hill family: m must be >= 1")

    def value(self, x):
        return 1.0 / (1.0 + (x / self.k) ** self.m)

    def slope(self, x):
        u = (x / self.k) ** self.m
        with np.errstate(invalid="ignore"):  # inf / inf where u overflows, whose limit is -0
            d = -(self.m / self.k) * (x / self.k) ** (self.m - 1.0) / (1.0 + u) ** 2
        return np.where(np.isinf(u), -0.0, d)


@dataclass(frozen=True)
class LinearPsi(_Feedback):
    """Crowding mortality c * x."""

    name = "linear"
    c: float

    def __post_init__(self):
        if not (self.c > 0):
            raise ParameterError("psi linear family: c must be > 0")

    def value(self, x):
        return self.c * x

    def slope(self, x):
        return np.full_like(x, self.c)


@dataclass(frozen=True)
class PowerPsi(_Feedback):
    """Crowding mortality c * x**gamma with gamma >= 1."""

    name = "power"
    c: float
    gamma: float

    def __post_init__(self):
        if not (self.c > 0):
            raise ParameterError("psi power family: c must be > 0")
        if not (self.gamma >= 1):
            raise ParameterError("psi power family: gamma must be >= 1")

    def value(self, x):
        return self.c * x ** self.gamma

    def slope(self, x):
        return self.c * self.gamma * x ** (self.gamma - 1.0)


@dataclass(frozen=True)
class _Constant(_Feedback):
    """A feedback that crowding does not move: ``level`` everywhere, with slope 0."""

    level: float

    def value(self, x):
        return np.full_like(x, self.level)

    def slope(self, x):
        return np.zeros_like(x)


@dataclass(frozen=True)
class FeedbackSpec:
    """A fertility damping phi and a crowding mortality psi.

    ``FeedbackSpec.linear()`` switches both off, which makes the model linear;
    it is meant for closed-form integrator checks, not production runs.
    """

    phi_family: object
    psi_family: object

    @classmethod
    def linear(cls) -> "FeedbackSpec":
        return cls(phi_family=_Constant(1.0), psi_family=_Constant(0.0))

    def phi(self, x):
        return self.phi_family(x)

    def phi_prime(self, x):
        return self.phi_family.derivative(x)

    def psi(self, x):
        return self.psi_family(x)

    def psi_prime(self, x):
        return self.psi_family.derivative(x)

    def phi_psi(self, x: float) -> tuple[float, float]:
        """(phi(x), psi(x)) of one size from one one-element array: the bits of the two scalar calls."""
        x = np.array([x], dtype=float)
        with np.errstate(over="ignore"):
            return float(self.phi_family.value(x)[0]), float(self.psi_family.value(x)[0])


_PHI_FAMILIES = {cls.name: cls for cls in (ExponentialPhi, HillPhi)}
_PSI_FAMILIES = {cls.name: cls for cls in (LinearPsi, PowerPsi)}


def make_phi(family: str, **params):
    """Build a fertility-damping family by name ('exponential' or 'hill')."""
    if family not in _PHI_FAMILIES:
        raise ParameterError(f"unknown phi family {family!r}")
    return _PHI_FAMILIES[family](**params)


def make_psi(family: str, **params):
    """Build a crowding-mortality family by name ('linear' or 'power')."""
    if family not in _PSI_FAMILIES:
        raise ParameterError(f"unknown psi family {family!r}")
    return _PSI_FAMILIES[family](**params)


# ---------------------------------------------------------------------------
# parameters


def fertility_kernel_integral(betas: Sequence[float], rate):
    """Closed form of the age integral sum_i beta_i * i! / rate**(i+1), elementwise over rates.

    This equals the integral over ages of the raw fertility profile weighted
    by exp(-(rate - rho) * a) when rate already includes rho. Terms beyond
    the float range read as inf or 0 instead of raising.
    """
    rate = np.asarray(rate, dtype=float)
    if not np.all(rate > 0):
        raise ParameterError("kernel integral needs a positive decay rate")
    with np.errstate(over="ignore", divide="ignore"):
        total = sum(b * math.factorial(i) / rate ** (i + 1) for i, b in enumerate(betas))
    return _scalar_or_array(rate, total)


def normalize_betas(betas: Sequence[float], rho: float, mu0: float) -> tuple[float, ...]:
    """Rescale profile coefficients so the zero-crowding generation integral is 1.

    After rescaling, sum_i beta_i * i! / (rho + mu0)**(i+1) == 1, which makes
    the net reproduction number at zero population equal r0.
    """
    if not (rho > 0 and mu0 > 0):
        raise ParameterError("normalize_betas requires rho > 0 and mu0 > 0")
    betas = tuple(float(b) for b in betas)
    if len(betas) == 0 or any(b <= 0 for b in betas):
        raise ParameterError("normalize_betas requires a nonempty, positive coefficient list")
    s = fertility_kernel_integral(betas, rho + mu0)
    if s == 0.0:
        raise ParameterError("normalize_betas: the generation integral underflows to 0")
    return tuple(b / s for b in betas)


#: largest n: reproduction_derivative needs (n + 1)! as a float, and 171! overflows
_MAX_N = 170


def _check_size(n, betas) -> None:
    """Reject a moment count outside [1, _MAX_N] or a betas list of another length."""
    if not isinstance(n, int) or n < 1:
        raise ParameterError("n must be an integer >= 1")
    if n > _MAX_N:
        raise ParameterError(f"n must be at most {_MAX_N}: (n + 1)! must fit a float")
    if len(betas) != n:
        raise ParameterError(f"expected {n} betas, got {len(betas)}")


@dataclass(frozen=True)
class ModelParams:
    """Static model parameters.

    n        length of the fertility polynomial (number of coefficients)
    betas    positive profile coefficients beta_0 .. beta_{n-1}
    rho      exponential age-decay rate of the fertility profile
    mu0      base mortality rate
    r0       fertility scale; equals the zero-crowding net reproduction
             number when the betas are normalized
    """

    n: int
    betas: tuple[float, ...]
    rho: float
    mu0: float
    r0: float
    normalized: bool = False

    def __post_init__(self):
        betas = tuple(float(b) for b in self.betas)
        object.__setattr__(self, "betas", betas)
        _check_size(self.n, betas)
        for i, b in enumerate(betas):
            if not math.isfinite(b) or b <= 0:
                raise ParameterError(f"betas[{i}] must be finite and > 0")
        for name in ("rho", "mu0", "r0"):
            v = float(getattr(self, name))
            object.__setattr__(self, name, v)
            if not math.isfinite(v) or v <= 0:
                raise ParameterError(f"{name} must be finite and > 0")
        s = fertility_kernel_integral(betas, self.rho + self.mu0)
        if self.normalized and abs(s - 1.0) > 1e-12:
            raise ParameterError(f"betas flagged normalized but the generation integral is {s!r}")
        self.check_r0_range(self.r0)

    def check_r0_range(self, r0, where: str = "") -> None:
        """Reject r0 values not positive and finite, or whose r0 * K(betas, rho + mu0) overflows.

        ``r0`` is one value or an array; with ``where`` set, messages name the failing entry ``where[i]``.
        """
        r0 = np.atleast_1d(r0)
        bad = ~((r0 > 0) & (r0 < math.inf))
        if bad.any():
            raise ParameterError(f"{where}[{int(np.argmax(bad))}] must be positive and finite")
        kernel = fertility_kernel_integral(self.betas, self.rho + self.mu0)
        with np.errstate(over="ignore"):
            bad = ~np.isfinite(r0 * kernel)
        if bad.any():
            entry = f"{where}[{int(np.argmax(bad))}]: " if where else ""
            raise ParameterError(
                f"{entry}the zero-crowding reproduction number r0 * K(betas, rho + mu0) "
                "overflows the float range"
            )

    def with_r0(self, r0: float) -> "ModelParams":
        return ModelParams(self.n, self.betas, self.rho, self.mu0, float(r0), self.normalized)


def fertility_age_profile(a, params: ModelParams):
    """Raw (undamped) fertility profile sum_i beta_i * a**i * exp(-rho * a)."""
    a_arr = np.asarray(a, dtype=float)
    if np.any(a_arr < 0):
        raise ParameterError("ages must be nonnegative")
    return _scalar_or_array(a, _profile_values(a_arr, params.betas, params.rho))


def _profile_values(a: np.ndarray, betas: Sequence[float], rho: float) -> np.ndarray:
    # Horner evaluation of the polynomial part
    acc = np.zeros_like(a)
    for b in reversed(betas):
        acc = acc * a + b
    return acc * np.exp(-rho * a)


# ---------------------------------------------------------------------------
# initial age densities


#: mass fraction an initial density may leave beyond its ``support_end``
TAIL_TOL = 1e-14


class InitialDensity(ABC):
    """Initial age distribution of the population."""

    @abstractmethod
    def evaluate(self, a):
        """Density value at age(s) a; zero outside the support."""

    @abstractmethod
    def mass(self, beyond: float = 0.0) -> float:
        """Initial population aged above ``beyond``: the total by default."""

    @abstractmethod
    def weighted_moment(self, i: int, rho: float) -> float:
        """Integral of a**(i-1) * exp(-rho*a) times the density, for i >= 1."""

    @abstractmethod
    def support_end(self) -> float:
        """Age beyond which the remaining mass fraction is at most TAIL_TOL."""


@dataclass(frozen=True)
class ExponentialDensity(InitialDensity):
    """Density coefficient * exp(-decay * a) on all nonnegative ages."""

    coefficient: float
    decay: float

    def __post_init__(self):
        if not (self.coefficient >= 0):
            raise ParameterError("exponential density: coefficient must be >= 0")
        if not (self.decay > 0):
            raise ParameterError("exponential density: decay must be > 0")

    def evaluate(self, a):
        a_arr = np.asarray(a, dtype=float)
        vals = np.where(a_arr >= 0, self.coefficient * np.exp(-self.decay * np.maximum(a_arr, 0.0)), 0.0)
        return _scalar_or_array(a, vals)

    def mass(self, beyond: float = 0.0) -> float:
        return self.coefficient / self.decay * math.exp(-self.decay * beyond)

    def weighted_moment(self, i: int, rho: float) -> float:
        if i < 1:
            raise ParameterError("weighted_moment index must be >= 1")
        if self.coefficient == 0.0:
            return 0.0
        with np.errstate(over="ignore", divide="ignore"):  # out of range reads as inf or 0
            return float(self.coefficient * math.factorial(i - 1) / np.float64(rho + self.decay) ** i)

    def support_end(self) -> float:
        if self.coefficient == 0.0:
            return 0.0
        return math.log(1.0 / TAIL_TOL) / self.decay


@dataclass(frozen=True, eq=False)
class TabulatedDensity(InitialDensity):
    """Piecewise-linear density on a strictly increasing age table, zero outside."""

    ages: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ages = np.asarray(self.ages, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if ages.ndim != 1 or values.shape != ages.shape or ages.size < 2:
            raise ParameterError("tabulated density needs matching 1-d tables of length >= 2")
        if ages[0] < 0 or np.any(np.diff(ages) <= 0):
            raise ParameterError("tabulated ages must be nonnegative and strictly increasing")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ParameterError("tabulated values must be finite and nonnegative")
        ages.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "ages", ages)
        object.__setattr__(self, "values", values)

    def evaluate(self, a):
        a_arr = np.asarray(a, dtype=float)
        vals = np.interp(a_arr, self.ages, self.values, left=0.0, right=0.0)
        inside = (a_arr >= self.ages[0]) & (a_arr <= self.ages[-1])
        vals = np.where(inside, vals, 0.0)
        return _scalar_or_array(a, vals)

    def mass(self, beyond: float = 0.0) -> float:
        ages, values = self.ages, self.values
        if beyond > ages[0]:  # the table clipped at ``beyond``
            keep = ages > beyond
            ages = np.append(beyond, ages[keep])
            values = np.append(np.interp(beyond, self.ages, self.values), values[keep])
        # the trapezoid rule is exact for a piecewise-linear density
        return float(np.sum(0.5 * np.diff(ages) * (values[1:] + values[:-1])))

    def weighted_moment(self, i: int, rho: float) -> float:
        if i < 1:
            raise ParameterError("weighted_moment index must be >= 1")
        # Gauss-Legendre on each table segment: its weights are positive, so a
        # nonnegative table never gives a negative moment, and i // 2 + 4 nodes
        # are exact for the polynomial a**(i-1) times the linear piece
        nodes, weights = np.polynomial.legendre.leggauss(i // 2 + 4)
        half = 0.5 * np.diff(self.ages)[:, None]
        a = 0.5 * (self.ages[1:] + self.ages[:-1])[:, None] + half * nodes
        integrand = a ** (i - 1) * np.exp(-rho * a) * np.interp(a, self.ages, self.values)
        return float(np.sum(half * weights * integrand))

    def support_end(self) -> float:
        return float(self.ages[-1])


def density_moments(p0: InitialDensity, rho: float, n: int, where: str = "") -> np.ndarray:
    """Initial ODE state [p, p_1, ..., p_n] from a density: total mass plus the n weighted moments.

    A value beyond the float range raises ParameterError; ``where`` prefixes its message."""
    if not (rho > 0) or n < 1:
        raise ParameterError("density_moments requires rho > 0 and n >= 1")
    with np.errstate(all="ignore"):
        start = np.array([p0.mass(), *(p0.weighted_moment(i, rho) for i in range(1, n + 1))], dtype=float)
    if not np.isfinite(start).all():
        raise ParameterError(f"{where}its mass or a weighted moment is not finite")
    return start
