"""Exact moment reduction of the age-structured model to an ODE system.

The state is (p, p_1, ..., p_n): total population plus the n weighted age
moments of the density against a**(i-1) * exp(-rho*a). The birth rate is an
algebraic readout of the state, and the system closes exactly because the
fertility age profile is a polynomial times exp(-rho*a).

One Runge-Kutta loop runs two methods: classical fixed-step RK4 and the
adaptive embedded Dormand-Prince 5(4) pair. It integrates an extra channel
for the running integral of the crowding mortality psi(p), which the density
reconstruction needs, and keeps cubic-Hermite dense output between accepted
steps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    NegativityError,
    ParameterError,
    StepSizeError,
    TrajectoryRangeError,
)
from .quadrature import MAX_GRID_NODES

if TYPE_CHECKING:  # pragma: no cover
    from .model import FeedbackSpec, ModelParams

NEGATIVE_SLACK = 1e-9


def _clamp_undershoot(y: np.ndarray, error: type, where: str = "") -> int:
    """Apply the undershoot policy to the state entries ``y`` in place.

    An entry below -NEGATIVE_SLACK or not finite raises ``error``; the
    remaining negatives are set to zero. Returns how many were zeroed.
    """
    lo, hi = y.min(), y.max()  # both propagate NaN
    if not (lo >= -NEGATIVE_SLACK and hi < math.inf):
        finite = np.isfinite(y)
        if not finite.all():
            raise error(f"state entry {float(y[~finite][0])!r}{where} is not finite")
        raise error(f"state entry {float(lo)!r}{where} fell below the -1e-9 negativity slack")
    if lo >= 0.0:
        return 0
    negative = y < 0.0
    y[negative] = 0.0
    return int(np.count_nonzero(negative))


@dataclass(frozen=True)
class StateVector:
    """Population total plus weighted age moments; entries are nonnegative.

    Construction applies the undershoot policy: values in [-1e-9, 0) are
    clamped to zero, anything more negative or not finite is rejected.
    """

    p: float
    moments: tuple[float, ...]

    def __post_init__(self):
        y = self.as_array()
        _clamp_undershoot(y, ParameterError)
        object.__setattr__(self, "p", float(y[0]))
        object.__setattr__(self, "moments", tuple(float(v) for v in y[1:]))

    def as_array(self) -> np.ndarray:
        return np.array([self.p, *self.moments], dtype=float)

    @classmethod
    def from_array(cls, y) -> "StateVector":
        y = np.asarray(y, dtype=float)
        return cls(p=float(y[0]), moments=tuple(float(v) for v in y[1:]))


def _state_array(state: StateVector, params: ModelParams) -> np.ndarray:
    """The state as [p, p_1, ..., p_n], checked to carry params.n moments."""
    if len(state.moments) != params.n:
        raise ParameterError(f"state carries {len(state.moments)} moments, expected {params.n}")
    return state.as_array()


def _beta_sum(y: np.ndarray, betas) -> np.ndarray:
    """sum_i beta_i * p_{i+1} of a state or of rows, term by term: a state reads the same bits in any batch."""
    return sum(b * m for b, m in zip(betas, y.T[1:]))


def _births(y: np.ndarray, params, feedback):
    """Birth rate r0 * phi(p) * sum_i beta_i * p_{i+1} of one state or of rows of them.

    A Runge-Kutta stage may dip below 0, so phi sees max(p, 0).
    """
    return params.r0 * feedback.phi(np.maximum(y.T[0], 0.0)) * _beta_sum(y, params.betas)


def _rhs_array(y: np.ndarray, params, feedback) -> np.ndarray:
    # y' = A(p) y: births r0 phi(p) beta.m enter p and p_1, p decays at
    # mu0 + psi(p), each moment at rho + mu0 + psi(p), and p_i feeds p_{i+1}
    # at rate i
    p = y[0]
    psi = feedback.psi(max(p, 0.0))  # as in _births, psi sees max(p, 0)
    births = _births(y, params, feedback)
    out = -(params.rho + params.mu0 + psi) * y
    out[0] = -(params.mu0 + psi) * p + births
    out[1] += births
    if params.n > 1:
        out[2:] += np.arange(1, params.n) * y[1:-1]
    return out


def rhs(state: StateVector, params: ModelParams, feedback: FeedbackSpec) -> StateVector:
    """Time derivative of the moment system at a state.

    The first component is the balance law p' = births - (mu0 + psi(p)) * p.
    """
    d = _rhs_array(_state_array(state, params), params, feedback)
    out = object.__new__(StateVector)  # derivatives may be negative; skip clamping
    object.__setattr__(out, "p", float(d[0]))
    object.__setattr__(out, "moments", tuple(float(v) for v in d[1:]))
    return out


def birth_rate(state: StateVector, params: ModelParams, feedback: FeedbackSpec) -> float:
    """Birth rate r0 * phi(p) * sum_i beta_i * p_{i+1} at a state; nonnegative."""
    return float(_births(_state_array(state, params), params, feedback))


# ---------------------------------------------------------------------------
# trajectory container with dense output


def _hermite_eval(t_arr: np.ndarray, kt: np.ndarray, ky: np.ndarray, kf: np.ndarray) -> np.ndarray:
    """Cubic-Hermite interpolation between integrator knots (value + derivative)."""
    idx = np.clip(np.searchsorted(kt, t_arr, side="right") - 1, 0, kt.size - 2)
    h = kt[idx + 1] - kt[idx]
    s = np.clip((t_arr - kt[idx]) / h, 0.0, 1.0)
    s2 = s * s
    s3 = s2 * s
    h00 = (2 * s3 - 3 * s2 + 1)[:, None]
    h10 = (s3 - 2 * s2 + s)[:, None]
    h01 = (-2 * s3 + 3 * s2)[:, None]
    h11 = (s3 - s2)[:, None]
    hh = h[:, None]
    return h00 * ky[idx] + h10 * hh * kf[idx] + h01 * ky[idx + 1] + h11 * hh * kf[idx + 1]


@dataclass
class Trajectory:
    """Sampled solution of the moment system plus dense-output knots.

    times/states/birth_rates/psi_integral are the user-facing samples;
    the knot arrays hold every accepted integrator step (state augmented
    with the psi integral) and its derivative for cubic-Hermite evaluation
    at arbitrary times in [0, t_end].
    """

    times: np.ndarray
    states: np.ndarray
    birth_rates: np.ndarray
    psi_integral: np.ndarray
    params: "ModelParams"
    feedback: "FeedbackSpec"
    knot_times: np.ndarray = field(repr=False)
    knot_states: np.ndarray = field(repr=False)
    knot_derivs: np.ndarray = field(repr=False)
    clamp_count: int = 0

    @property
    def t_end(self) -> float:
        return float(self.knot_times[-1])

    def _check_range(self, t: np.ndarray):
        slack = 1e-12 * max(1.0, self.t_end)
        if not np.all((t >= -slack) & (t <= self.t_end + slack)):  # NaN fails both
            raise TrajectoryRangeError(f"query time outside [0, {self.t_end!r}]")

    def _eval_aug(self, t) -> np.ndarray:
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        self._check_range(t_arr)
        return _hermite_eval(t_arr, self.knot_times, self.knot_states, self.knot_derivs)

    def state_at(self, t) -> np.ndarray:
        """State rows [p, moments...] at time(s) t, clamped to nonnegative."""
        out = np.maximum(self._eval_aug(t)[:, :-1], 0.0)
        return out[0] if np.ndim(t) == 0 else out

    def psi_integral_at(self, t):
        """Running integral of psi(p) over [0, t]."""
        out = np.maximum(self._eval_aug(t)[:, -1], 0.0)
        return float(out[0]) if np.ndim(t) == 0 else out

    def birth_rate_at(self, t):
        """Birth rate evaluated from the dense-output state at time(s) t."""
        b = _births(self.state_at(t), self.params, self.feedback)
        return float(b) if np.ndim(t) == 0 else b


# ---------------------------------------------------------------------------
# steppers

# Each method is a tuple of stage rows a_i (i = 1..s-1) whose last row holds
# the propagated weights, so the last stage is f at the step's result and is
# the next step's first stage (first-same-as-last). The moment system is
# autonomous, so the nodes c are not needed.
_RK4_A = tuple(
    np.array(row) for row in ((1 / 2,), (0.0, 1 / 2), (0.0, 0.0, 1.0), (1 / 6, 1 / 3, 1 / 3, 1 / 6))
)
_DP45_A = tuple(
    np.array(row)
    for row in (
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    )
)
# Dormand-Prince error weights per stage: the 5th- minus the 4th-order solution
_DP45_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
#: method name -> (stage rows, error weights, or None for fixed steps of h)
_METHODS = {"rk4": (_RK4_A, None), "rk45": (_DP45_A, _DP45_E)}


def _integrate_rk(f, y0, t_end, stages, err_weights, h, max_step, rtol, atol, n_state):
    """Knot times, states and derivatives of one Runge-Kutta run, and the clamp count.

    With error weights the step adapts to rtol/atol; without them every step
    of h is accepted. A step that ends within 1e-12 * max(1, t_end) of t_end
    ends on it.
    """
    land = 1e-12 * max(1.0, t_end)
    t, y = 0.0, y0.copy()
    ts, ys, fs = [t], [y], [f(y)]
    k = np.empty((len(stages) + 1, y0.size))
    clamped = 0
    while t < t_end:
        h = min(h, t_end - t, max_step)
        if h < 1e-14 * max(t_end, 1.0):
            raise StepSizeError(f"step size underflow at t={t!r}; problem too stiff")
        k[0] = fs[-1]  # the last accepted derivative, never a rejected trial's stage
        for i, row in enumerate(stages, 1):
            y_new = y + h * (row @ k[:i])
            k[i] = f(y_new)
        err = 0.0
        if err_weights is not None:
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            err = float(np.sqrt(np.mean((h * (err_weights @ k) / scale) ** 2)))
            if not np.isfinite(err):
                h *= 0.2
                continue
        if err <= 1.0:
            t = t_end if t_end - (t + h) < land else t + h
            clamped += _clamp_undershoot(y_new[:n_state], NegativityError, f" at t={t!r}")
            y = y_new
            ts.append(t)
            ys.append(y)
            fs.append(k[-1].copy())
        if err_weights is not None:
            h *= 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
    return np.array(ts), np.array(ys), np.array(fs), clamped


def check_integrator(t_end, samples, rtol, atol, h=None, max_step=None, where: str = "") -> None:
    """Raise ParameterError unless t_end, h and max_step (when given) are positive and finite,
    t_end / h and t_end / max_step are below MAX_GRID_NODES, 2 <= samples <= MAX_GRID_NODES,
    rtol > 0 and atol >= 0; ``where`` prefixes each name."""
    if not 0 < t_end < math.inf:
        raise ParameterError(f"{where}t_end must be positive and finite")
    if samples < 2:
        raise ParameterError(f"{where}samples must be at least 2")
    if samples > MAX_GRID_NODES:
        raise ParameterError(f"{where}samples must be at most {MAX_GRID_NODES}")
    if not (rtol > 0 and atol >= 0):
        raise ParameterError(f"{where}rtol must be positive and {where}atol nonnegative")
    for name, step in (("h", h), ("max_step", max_step)):
        if step is not None and not 0 < step < math.inf:
            raise ParameterError(f"{where}{name} must be positive and finite")
        if step is not None and not t_end / step < MAX_GRID_NODES:  # the knots are kept in lists
            raise ParameterError(f"{where}t_end / {where}{name} needs more than {MAX_GRID_NODES} knots")


def integrate(
    initial: StateVector,
    params: ModelParams,
    feedback: FeedbackSpec,
    t_end: float,
    *,
    method: str = "rk45",
    h: float | None = None,
    rtol: float = 1e-8,
    atol: float = 1e-10,
    max_step: float | None = None,
    n_samples: int = 1001,
) -> Trajectory:
    """Integrate the moment system over [0, t_end] and sample the solution.

    method 'rk4' takes fixed steps of h (the last step is shortened to land
    on t_end); 'rk45' is adaptive with the given rtol/atol. The samples are
    the n_samples times np.linspace(0, t_end, n_samples), evaluated from the
    dense output; ``state_at``, ``birth_rate_at`` and ``psi_integral_at``
    read any other time in [0, t_end]. States are kept nonnegative per the
    undershoot policy; the number of clamped entries is reported on the
    trajectory. ``check_integrator`` checks the settings.
    """
    check_integrator(t_end, n_samples, rtol, atol, h, max_step)
    y0 = np.append(_state_array(initial, params), 0.0)  # extra channel: integral of psi(p)
    n_state = params.n + 1

    def f(y):
        out = np.empty_like(y)
        out[:n_state] = _rhs_array(y[:n_state], params, feedback)
        out[n_state] = feedback.psi(max(y[0], 0.0))
        return out

    if not isinstance(method, str) or method not in _METHODS:
        raise ParameterError(f"unknown integration method {method!r}")
    stages, err_weights = _METHODS[method]
    if err_weights is None:
        if h is None:
            raise ParameterError("rk4 requires a positive step size h")
        max_step = h
    else:
        if max_step is None:
            max_step = t_end / 20.0
        h = min(max_step, t_end / 100.0)
    kt, ky, kf, clamped = _integrate_rk(
        f, y0, float(t_end), stages, err_weights, float(h), float(max_step), float(rtol), float(atol), n_state
    )

    sample_times = np.linspace(0.0, t_end, n_samples)
    aug = _hermite_eval(sample_times, kt, ky, kf)
    states = aug[:, :n_state].copy()
    clamped += _clamp_undershoot(states, NegativityError, " in the samples")
    zint = np.maximum.accumulate(np.maximum(aug[:, n_state], 0.0))  # guard float-level dips
    if clamped:
        warnings.warn(f"integration clamped {clamped} slightly negative state entries", stacklevel=2)
    return Trajectory(
        times=sample_times,
        states=states,
        birth_rates=_births(states, params, feedback),
        psi_integral=zint,
        params=params,
        feedback=feedback,
        knot_times=kt,
        knot_states=ky,
        knot_derivs=kf,
        clamp_count=clamped,
    )
